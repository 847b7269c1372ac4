"""The pipeline's numbers, pinned bit for bit.

A speed-up of the evaluator or of the linear solver must not change a
single bit of what the pipeline computes unless it says which bits move
and why.  The SHA-256 digests below pin:

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

All fourteen digests were re-recorded when the evaluator began to take
products, powers and sums at mpmath points in integer block form, rounded
once at the working precision, instead of in mpmath scalars (see
`cuspforge.holonomy`).  With the block form switched off, the fourteen
earlier digests came back bit for bit.  The trace samples agree with the
mpmath-product ones: shapes to 2^-284 at 256 bits and 2^-540 at 512, cusp
parameters (rounded at p bits) to 3 * 2^-p of their modulus.  In the
screen and fill JSON, 58 printed values moved, all of magnitude at most
1.5e-81: solve residuals; round-off of exactly vanishing tangent, `d_tau`
and `d2_tau` components and of whitehead's zero real parts; the imaginary
parts of the flat (1, -1) filling's shapes and the last digits of its
core translation; and the imaginary part of that filling's real cusp
shape, -4.3e-86 before and -1.4e-81 after, which is normwise rounding of
a real value.  No verdict, field, minimal polynomial or iteration count
moved.

The screen digest was re-recorded when the working-precision linear
algebra (least squares, the pinned factorisations and their solves) moved
from mpmath scalars to integer block form (see `cuspforge.solver`).  The
twelve trace digests and the fill digest kept every bit: the last Newton
step of a solve or of a traced point is too small for the rounding of its
solve to reach the result.  With the block path switched off, and the
residual's one square root kept, the earlier fourteen digests came back
bit for bit.  The tangent, dz, d2z, d_tau and d2_tau of every fixture cusp
agree with those of an mpmath elimination to about 2^-(p+48) normwise at
256 and 512 bits (`test_block_derivatives_match_an_mpmath_elimination`
checks 2^-(p+20)).  In the screen JSON 29 printed values moved, all of
magnitude at most 1.2e-87, so all below 1e-80: round-off of exactly
vanishing components of the isolation evidence, namely whitehead's
`tangent` entries 2 and 3 (imaginary parts) on both cusps, c2's `d_tau`
and `d2_tau` components; 622's `tangent` entries 0 and 1 (imaginary
parts, about 1.1e-87) and 2 and 3 (0.0 before, at most 4e-98 after) on
both cusps; berge's c `d_tau` and `tangent` entries 0 and 2, and
c-knotted's `d2_tau` and `tangent` entries 1 and 3.  No verdict, field,
minimal polynomial, iteration count or `restarts_used` moved.

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
    ("whitehead", 256, 0): "8b9c357ce105fc410b2f1085216fe4111303e3973597b72a3682bb50a1b30e22",
    ("whitehead", 256, 1): "b8d32616575a3540fa3944e4f9beb08a27e0da3a8aaf7b1c5d152badb79943a0",
    ("whitehead", 512, 0): "8368aeae98397ca30d3a6c7805dee1de4dd1e8650efd2eb762ce3373c6c4104e",
    ("whitehead", 512, 1): "fa01e3d220adf846216c692be62cf2284b3b1466d98172814e6280aed788193d",
    ("622", 256, 0): "103938fae54938382d8f340cc3acf707c0812b96bd1cfb6a1a8202c272f13b24",
    ("622", 256, 1): "aba50569b71dbf2cebdb160dc9ce8e353bca91af5cb5e3fb538cb7b9ba1ab90d",
    ("622", 512, 0): "9a163fc9a0deb21167e064f2c8034f34c650a1ebf598bbe1c89f766dfec53881",
    ("622", 512, 1): "d51b37c97082667ab23c19779f8b6182f47ddcf7996225fda0751cdf9ec409f8",
    ("berge", 256, 0): "a8054374f3a169e28662ea015fee5e49ee34f13b7d811866238573ad894ea3c4",
    ("berge", 256, 1): "68960da96e80339aed58eddeaaf0c065f5ecc5ba2b768cfc092fe26701c172d0",
    ("berge", 512, 0): "27118994d5dd8034a927de358f9e8f6092fc62a15a550b767e0d1686cfd3ab95",
    ("berge", 512, 1): "9bec59caaf89eb1315f24751c34b6242e5c04319582ab839a7da9c9abc9733de",
}

SCREEN_DIGEST = "86b5cdd5e7fa83123754c8964bd71fe3838df7aaec34fc528531738939042ac0"

FILL_DIGEST = "091f57741aee66c4593636c8f2eeee29bb6530822bf60640f7643a5517947f12"


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
