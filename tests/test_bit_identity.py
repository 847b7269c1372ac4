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

All twelve trace digests were re-recorded again when the curve corrector
began each point in machine precision: one pinned step in Python complex,
then a first working-precision step on the complex Jacobian.  The corrector
iterates moved in their low bits; each sample keeps the pinned coordinate
of its prediction, and the samples agree with those of the all-mpmath
corrector to 2^-p (`test_float_stage_matches_the_mpmath_corrector`).  The
screen and fill digests, which trace no curve, did not move.

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
    ("whitehead", 256, 0): "6b5cefd2944cb1d2f3db817fa3da45a4fa1ad0198a606f470ea37547db653cee",
    ("whitehead", 256, 1): "c2899232d6f74253b7d22522fbd84e3e672e0827f181f16354d606aac7e565a9",
    ("whitehead", 512, 0): "c037fe63c13c19d2736f647135c40af5bad07d5f0ab0a0a263611e28099b285b",
    ("whitehead", 512, 1): "1e3a4f2cf0255d4b8cc8ad7ee02fba8bdd66ed93ef033e7164d3d906bd8e7baa",
    ("622", 256, 0): "8fa4b35619ea73bc82d4932591524ce64346d2577abd5c2a407134ae66fa2d3b",
    ("622", 256, 1): "0050b8d06da97afd9842acf123fe8a40f256d620d7878baf41c36a2460b37357",
    ("622", 512, 0): "a0bf58f61156c2810d0966a757f562df6d73a703f82ea42050e09007967414bc",
    ("622", 512, 1): "7fedd87232b909893bc279f16690c1d629cc23ff9ae76f0c7659567f6e185f50",
    ("berge", 256, 0): "55952de0f9f335a344c6e97f416df956b26f907466cea6834a82f886b050edd5",
    ("berge", 256, 1): "d671e7fdb40a9b3dfb849752c48a7a9ce11b37af3c67a511509a109ac5626d74",
    ("berge", 512, 0): "4909564190c7fb90c635e3694cecc7fd6e4fd77bac32641ac9a401e2d4e55962",
    ("berge", 512, 1): "5e6ac733c3c139b8aac3dfca99b5e8d4ab55f8f4d44eae3fd3fde513614fb0d2",
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
