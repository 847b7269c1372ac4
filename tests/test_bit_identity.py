"""The pipeline's numbers, pinned bit for bit.

Speed-ups of the evaluator and of the linear solver must not change a
single bit of what the pipeline computes.  The SHA-256 digests below were
recorded before the evaluator memoised its powers and before
`least_squares` formed one triangle of its normal equations:

- the trace samples of every fixture cusp at 256 and 512 bits (8 points
  at step 1e-3 from `solve_complete` with seed 0): every shape and the
  cusp parameter, as mpmath `_mpf_` tuples;
- the `screen` JSON of whitehead, 622 and berge at 256 bits, as the CLI
  prints it with `--format json`, with each source path cut to its file
  name.

The `fill` JSON of the (1, n) fillings of whitehead's cusp 1, n = -5..5
without 0, at 256 bits (source path cut the same way) was recorded before
`algdep` stopped factoring every reduced row with `sympy.factor_list`.

A change that moves a digest changes numbers: it has to say which and
why, and record the new digests.  The screen digest also covers the
report format and the version string in its provenance.
"""

import hashlib
import json
import pathlib

import pytest
from mpmath import mp

import cuspforge as cf
from cuspforge.screen import ScreenOptions, fill_and_screen, screen
from cuspforge.solver import solve_complete, trace_completeness_curve

FIXTURES = pathlib.Path(cf.__file__).parent / "fixtures"

TRACE_DIGESTS = {
    ("whitehead", 256, 0): "cea58fccfc3e389b93ecaa6d881817add89458def0e0b1f7e8b4ba3a3534056f",
    ("whitehead", 256, 1): "3f8ee11fa4d8acf2f540b122ef5888cd1e2c1a5aad1c1b773250ea62fc284eb7",
    ("whitehead", 512, 0): "1fb9f564d8aacda707de7da182e2db63da2bd3fd4c2a238f5d6cea61df21fe13",
    ("whitehead", 512, 1): "50ca5b5124d4e413d918a9cbd28669a1366ca5c4d00385bb1323101613d320b7",
    ("622", 256, 0): "60ebaf23ab7f20a7baba774ad7da638dc83b4bec84d525961bbfc9ec51cd7401",
    ("622", 256, 1): "12d798837ccdc27cccbb369c3957bc837df748865bee042a7eee8acd3499d01d",
    ("622", 512, 0): "4ad24eed50f4fa91f5036883c819b85e25df9dd68a5206c3c1bf5f2bd03d6b29",
    ("622", 512, 1): "d0707f3d7091c9016979d8d393b09951aca225067b47539c5e24a5f61e465d72",
    ("berge", 256, 0): "c13d5367fe341e13ca5eac939f5e11ab52de54f8a79f976634e0472c840b589e",
    ("berge", 256, 1): "c1da46e1d31dcca6afa739b6438eca7935426f97b24be3d8394aa6bf2cd61173",
    ("berge", 512, 0): "3985e6f2eb64ae3fabd2f32b7c9ced5df4036d97983c999f5f231c6a0ba925c5",
    ("berge", 512, 1): "e486a27924c6bb6c612b58c126b73a4defbd91a9c95ce5687cdbe8a97af935d8",
}

SCREEN_DIGEST = "db3dc30047e72b7b1e1208da222d8eb96b605f6a02f9b6b45e2a89b49da2fb23"

FILL_DIGEST = "69bed0848b8e72f426049aea57655ad64850e995e6552a86de1f6079018ee460"


def _exact(x) -> tuple:
    return tuple(int(v) for v in x.real._mpf_), tuple(int(v) for v in x.imag._mpf_)


def trace_digest(name: str, bits: int, cusp: int, start=None) -> str:
    tri = cf.load_fixture(name)
    with mp.workprec(bits + 30):
        start = start or solve_complete(tri, bits, seed=0)
        samples = trace_completeness_curve(tri, cusp, n_points=8, step=1e-3,
                                           precision_bits=bits, start=start)
    data = [(tuple(_exact(z) for z in shapes.z), _exact(value)) for shapes, value in samples]
    return hashlib.sha256(repr(data).encode()).hexdigest()


def reports_digest(reports) -> str:
    docs = [r.to_jsonable() for r in reports]
    for doc in docs:
        doc["source"] = pathlib.Path(doc["source"]).name
    return hashlib.sha256(json.dumps(docs, sort_keys=True, indent=1).encode()).hexdigest()


def screen_digest() -> str:
    with mp.workprec(256 + 30):
        reports = screen([FIXTURES / f"{name}.json" for name in ("whitehead", "622", "berge")],
                         ScreenOptions(precision_bits=256))
    return reports_digest(reports)


def fill_digest() -> str:
    with mp.workprec(256 + 30):
        reports = fill_and_screen(FIXTURES / "whitehead.json", 1, [n for n in range(-5, 6) if n],
                                  ScreenOptions(precision_bits=256))
    return reports_digest(reports)


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("name", ["whitehead", "622", "berge"])
def test_trace_samples_are_bit_identical(name, bits):
    tri = cf.load_fixture(name)
    with mp.workprec(bits + 30):
        start = solve_complete(tri, bits, seed=0)
    for cusp in range(len(tri.cusps)):
        assert trace_digest(name, bits, cusp, start) == TRACE_DIGESTS[name, bits, cusp]


def test_screen_json_is_bit_identical():
    assert screen_digest() == SCREEN_DIGEST


def test_fill_json_is_bit_identical():
    assert fill_digest() == FILL_DIGEST
