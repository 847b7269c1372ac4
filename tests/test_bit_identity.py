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
began each point in machine precision, its first steps on the Jacobian
at the point rounded to Python complex.  The corrector iterates moved in
their low bits; each sample keeps the pinned coordinate of its
prediction, and the samples agree with those of the all-mpmath corrector
to 2^-p (`test_float_stage_matches_the_mpmath_corrector`).  The screen
and fill digests, which trace no curve, did not move.  No digest moved
when those steps joined the one Newton loop of the corrector: its first
two steps of a point factor the complex Jacobian and solve the exact
values rounded to complex, and no complex factorisation solves in block
form.

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

The four trace digests of whitehead and the screen and fill digests were
re-recorded when each Newton point began to form the product of every
cleared term once, and to take the residual, the values and the Jacobian
of its step from those products, handing the Jacobian and the values to
the elimination in block form, unrounded (see `cuspforge.solver`).  The
gradients of the tau sums and of the equations at Python complex points
changed with it: each is the sum of the terms times their log gradients,
not the value of a derivative sum.  With the new evaluation switched off
the fourteen earlier digests came back bit for bit.  The whitehead samples
agree with the earlier ones to 2^-295 at 256 bits and 2^-551 at 512, the
cusp parameters bit for bit, and the samples of 622 and berge kept every
bit.  In the screen JSON 33 printed values moved, all of magnitude at most
4.5e-87: round-off of exactly vanishing components of the isolation
evidence (`tangent`, `d_tau`, `d2_tau`) and whitehead's four zero real
parts.  In the fill JSON 13 moved, all of magnitude at most 1.5e-81: solve
residuals, and the imaginary parts of the flat (1, -1) filling's shapes,
core translation and real cusp shape.  No verdict, field, minimal
polynomial, iteration count, `restarts_used` or branch offset moved.

The screen digest was re-recorded when the isolation test's last mpmath
evaluations at a block-form point moved to block form (see
`cuspforge.blockform`): `holonomy.second_derivative_along` now forms each
term's contribution from block forms and sums them exactly, rounding
once, and `isolation.tau_derivatives` dots the tau sums' block-form
gradients with dz and d2z exactly, rounding each dot product once; they
were mpmath sums of rounded products.  The twelve trace digests and the
fill digest kept every bit, though `log_gradient` now rounds a block-form
entry for the filled polish.  With the new path switched off, the earlier
screen digest came back bit for bit.  The second derivatives agree with
a scalar oracle at three times the working precision wp = p + 30 to
2^-(p+30.3) of their modulus at p = 128, 256 and 512.  In the screen JSON
10 printed values moved, all of magnitude at most 4.4e-87: round-off of
exactly vanishing `d_tau` and `d2_tau` components, on both cusps of
whitehead, both cusps of 622 (`d_tau` only) and berge's c-knotted
(`d2_tau` only).  No verdict, field, minimal polynomial, isolation
order, pin or `tangent` entry moved.

No digest moved when block-form products began to cut themselves:
`blockform.mul`, `minus` and `dot` shift their exact results inline, and
`Point._product` and `Point.gradient_forms` multiply inline, on the same
integers in the same order (`tests/test_blockform.py` checks them against
the one-line kernels of `tests/blockform_oracle.py`).

The fill digest was re-recorded when `solve_filled` began to ramp from
the float root of its own start search, instead of from the polished
complete structure rounded to Python complex (see `cuspforge.solver`).
The two ramps end within round-off of each other, and the one polish
brings both to the same structure: the shapes agree to 2^-(p-10), with
the same iteration counts, branch offsets and flags
(`test_filling_from_the_float_root_matches_the_polished_start`).  In the
fill JSON 15 printed values moved, all of magnitude at most 1.5e-81: 9
solve residuals, and 6 values of the flat (1, -1) filling that vanish up
to round-off, namely the imaginary parts of its 4 shapes, of its core
translation and of its real cusp shape.  The branch-offset tie rule that
came with it moves no offset of these fillings.  No verdict, field,
minimal polynomial, iteration count, `restarts_used` or branch offset
moved, and the twelve trace digests and the screen digest, which fill
nothing, kept every bit.

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
    ("whitehead", 256, 0): "f93be30dd6869f8d205c90ce6e8d0322e2de23a8a1a7059ed022eb6a56885a0d",
    ("whitehead", 256, 1): "dfc95a73dc630569a207755eec536260003bc9c05919d5278562905c28d79f4d",
    ("whitehead", 512, 0): "4dfa3ac8f4808615ef21a9f538282d6e7921f8af1787d80fda62fd45eebedd4c",
    ("whitehead", 512, 1): "4c9aaf536bbb06ffee0b68cd55609ae1188203c1924a1d8963bd65b02f00563b",
    ("622", 256, 0): "103938fae54938382d8f340cc3acf707c0812b96bd1cfb6a1a8202c272f13b24",
    ("622", 256, 1): "aba50569b71dbf2cebdb160dc9ce8e353bca91af5cb5e3fb538cb7b9ba1ab90d",
    ("622", 512, 0): "9a163fc9a0deb21167e064f2c8034f34c650a1ebf598bbe1c89f766dfec53881",
    ("622", 512, 1): "d51b37c97082667ab23c19779f8b6182f47ddcf7996225fda0751cdf9ec409f8",
    ("berge", 256, 0): "a8054374f3a169e28662ea015fee5e49ee34f13b7d811866238573ad894ea3c4",
    ("berge", 256, 1): "68960da96e80339aed58eddeaaf0c065f5ecc5ba2b768cfc092fe26701c172d0",
    ("berge", 512, 0): "27118994d5dd8034a927de358f9e8f6092fc62a15a550b767e0d1686cfd3ab95",
    ("berge", 512, 1): "9bec59caaf89eb1315f24751c34b6242e5c04319582ab839a7da9c9abc9733de",
}

SCREEN_DIGEST = "089ee633e6d7d101d5716342cb42d7f2623b8dd1eb48fceb055324f259c64b4e"

FILL_DIGEST = "8015db1c5c1ec16850c18f2eade8fd0194a1d733243b57eabe272c0adb61da9f"


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
