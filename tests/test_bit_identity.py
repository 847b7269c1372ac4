"""The pipeline's numbers, pinned bit for bit.

Speed-ups of the evaluator and of the linear solver must not change a
single bit of what the pipeline computes.  The SHA-256 digests below pin:

- the trace samples of every fixture cusp at 256 and 512 bits (8 points
  at step 1e-3 from `solve_complete` with seed 0): every shape and the
  cusp parameter, as mpmath `_mpf_` tuples;
- the `screen` JSON of whitehead, 622 and berge at 256 bits, as the CLI
  prints it with `--format json`, with each source path cut to its file
  name;
- the `fill` JSON of the (1, n) fillings of whitehead's cusp 1, n = -5..5
  without 0, at 256 bits (source path cut the same way).

The trace digests of whitehead and 622 and the screen digest were
re-recorded when the pinned steps became square solves on the rows
`curve_pin` keeps, instead of least squares on every row.  The corrector
iterates moved in their low bits: the samples agree with the least-squares
ones to 2^-p (`test_square_pinned_steps_match_least_squares`), and berge's
samples kept every bit.  In the screen JSON only printed values of
magnitude at most 2e-86 moved: round-off of exactly vanishing tangent
entries and components of `d_tau` and `d2_tau`.  The fill digest, which
no pinned solve reaches, did not move.

A change that moves a digest changes numbers: it has to say which and
why, and record the new digests; running this file prints the current
ones.  The screen digest also covers the report format and the version
string in its provenance.
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
    ("whitehead", 256, 0): "24201450ebf49f736557c842f05b7503845e7111bcda63ac8cc6718ea75ac406",
    ("whitehead", 256, 1): "eb709d6101744b897b084d6e878efd7ee87e8ce4250aca78d30db5254f4230fd",
    ("whitehead", 512, 0): "bae0181993a8c2b294a86b2bf975be687633ff02e93c0c5a6788caa958463dcf",
    ("whitehead", 512, 1): "15049745715fb1ee709ad7958062c4bb77f81b724c2857d17d3bd3fb7ee88384",
    ("622", 256, 0): "0df9d887db58d5915df208c28caf94d53c0591db7570e0b61890878c3adc8473",
    ("622", 256, 1): "8d717ac0c1ad9a0643b987185b860383fd980ae08f04d7b6fad1d4755bb3a1af",
    ("622", 512, 0): "6cb1a1dbd3c9687bbf7f66d9d8e1b334c9239ee9e109e32ed78f89b6ece1a7aa",
    ("622", 512, 1): "5cbcd72d29650eb99e5a8f703e3964ba75bcfe11e540b05f1696fdd74e3d93e1",
    ("berge", 256, 0): "c13d5367fe341e13ca5eac939f5e11ab52de54f8a79f976634e0472c840b589e",
    ("berge", 256, 1): "c1da46e1d31dcca6afa739b6438eca7935426f97b24be3d8394aa6bf2cd61173",
    ("berge", 512, 0): "3985e6f2eb64ae3fabd2f32b7c9ced5df4036d97983c999f5f231c6a0ba925c5",
    ("berge", 512, 1): "e486a27924c6bb6c612b58c126b73a4defbd91a9c95ce5687cdbe8a97af935d8",
}

SCREEN_DIGEST = "c18c02d151c9c18185c57af16a6953255101fabe284c5938a802812b2b71c695"

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


if __name__ == "__main__":
    # Print every current digest in the form of the constants above, for
    # re-recording: PYTHONPATH=src python tests/test_bit_identity.py
    mp.prec = 256 + 44  # the global precision tests/conftest.py sets
    print("TRACE_DIGESTS = {")
    for name in ("whitehead", "622", "berge"):
        tri = cf.load_fixture(name)
        for bits in (256, 512):
            with mp.workprec(bits + 30):
                start = solve_complete(tri, bits, seed=0)
            for cusp in range(len(tri.cusps)):
                print(f'    ("{name}", {bits}, {cusp}): "{trace_digest(name, bits, cusp, start)}",')
    print("}")
    print(f'\nSCREEN_DIGEST = "{screen_digest()}"')
    print(f'\nFILL_DIGEST = "{fill_digest()}"')
