"""Geometric-isolation testing for a cusp of a two-cusped manifold.

A cusp is *not* geometrically isolated from the other when its parameter
function varies along the curve of structures keeping it complete.  That
is certifiable: a nonzero first or second derivative at the complete
structure, or a certified spread of sampled values along the traced curve,
witnesses non-constancy.  Constancy itself is not certifiable from finitely
many numerical samples, so the verdict is always NotIsolated(...) or
Inconclusive, never "isolated".

Derivatives come from the implicit function theorem on the pinned system:
with one coordinate chosen as the curve parameter (largest kernel-vector
entry, ties to the lowest index), first derivatives solve M u' = -v and
second derivatives solve M u'' = -(u'^T Hess u'), in arbitrary precision,
where M is the square system of the n - 1 kept rows without the pin
column (`solver.pinned_factor`), factored once for both.  The reported
tangent is the normalised pinned velocity dz/|dz|, where dz is u' with 1
at the pinned coordinate.  One kernel check, `solver.curve_pin`, serves
tracing and derivatives alike: it checks that the kernel is
one-dimensional (else KernelDimensionError, also near the rank cut) and
gives the pin and the kept rows, as many as the rank.  It runs at
precision p, on the whole Jacobian whose kept rows M is made of; the
doubled-precision pass reuses the pin and the kept rows, evaluates only
the kept equations and runs no kernel check.
The Jacobian rows are the gradients of the cleared equations, each term
times its log gradient.  The second derivative of every equation and of
both tau sums along u' is the closed form of
`holonomy.second_derivative_along`, formed per term in block form from
the term, its log-gradient and curvature entries and exact dot products
with u' and its squares, the terms summed exactly and rounded once, so no
derivative sum is built.  The tau sums' gradients stay in block form
(`holonomy.Point.gradient_forms`): their dot products with u' and with
u'' are exact (`blockform.dot`) and each is rounded once.  The Jacobian,
the tangent, the second derivatives and the tau sums at a point all
evaluate from the one memo of its `holonomy.Point`, and none of them
takes an mpmath operator; only the quotient rule for tau(l)/tau(m) is
mpmath.  Every pass reads the equations and tau pairs built once per
triangulation (`solver.invariants`), at the one Point per precision of
its structure (`ShapeAssignment.point`), which both cusps share.

`isolation_verdict` tests the complete structure it is handed, `start`,
and works at its precision p.  Its 2p structure is
`solver.doubled_structure` of `start` (see the `solver` module).  A caller
that tests several cusps may polish it once and pass it to each
`isolation_verdict`, as the `isolate` command does; without it, each
verdict polishes its own.

A derivative or spread counts as nonzero above tol = 10^(-TOL_DIGITS p/256)
(20 digits at 256 bits).  The continuation fallback traces
CONTINUATION_POINTS points at step CONTINUATION_STEP, at p and at 2p.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .blockform import block, block_width, dot, to_mpc
from .holonomy import ShapeAssignment, second_derivative_along, sum_value
from .manifold import IdealTriangulation
from .solver import (
    SolveError,
    SolveResult,
    completeness_system,
    curve_pin,
    curve_velocity,
    doubled_structure,
    invariants,
    pinned_factor,
    printed_complex,
    system_jacobian,
    trace_completeness_curve,
)

# decimal digits of the nonzero test per 256 bits of working precision
TOL_DIGITS = 20
CONTINUATION_POINTS = 8
CONTINUATION_STEP = 1e-3


@dataclass(frozen=True)
class IsolationEvidence:
    cusp: str
    jacobian_rank: int
    tangent: tuple
    d_tau: mpmath.mpc
    d2_tau: mpmath.mpc
    continuation_spread: mpmath.mpf | None
    verdict: str            # "NotIsolated" or "Inconclusive"
    order: int | None       # 1, 2, or None (continuation / inconclusive)
    pin_index: int
    notes: tuple[str, ...] = ()

    @property
    def not_isolated(self) -> bool:
        return self.verdict == "NotIsolated"

    @property
    def label(self) -> str:
        """The verdict with the evidence that certified it, as reports print it."""
        if self.order is not None:
            return f"{self.verdict}(order {self.order})"
        return f"{self.verdict}(continuation)" if self.not_isolated else self.verdict

    def to_jsonable(self) -> dict:
        def c(v):
            return None if v is None else printed_complex(v, 12)
        return {
            "cusp": self.cusp,
            "jacobian_rank": self.jacobian_rank,
            "tangent": [c(t) for t in self.tangent],
            "d_tau": c(self.d_tau),
            "d2_tau": c(self.d2_tau),
            "continuation_spread": None if self.continuation_spread is None
            else mp.nstr(self.continuation_spread, 8),
            "verdict": self.verdict,
            "order": self.order,
            "pin_index": self.pin_index,
            "notes": list(self.notes),
        }


def tau_derivatives(tri: IdealTriangulation, cusp: int, shapes: ShapeAssignment,
                    curve: tuple | None = None):
    """d/dt and d^2/dt^2 of the cusp parameter tau(l)/tau(m) along the
    completeness curve, plus the underlying shape derivatives, with the
    curve parametrized by the pinned coordinate.

    Returns a dict with keys d_tau, d2_tau, dz, d2z, pin, kept, tangent:
    dz and d2z are full-length vectors with dz[pin] = 1, d2z[pin] = 0, and
    the tangent is dz/|dz|.  Without `curve`, `curve_pin` checks the kernel
    of the whole Jacobian and gives the pin and the kept rows, which are
    taken from that Jacobian; `curve=(pin, kept)` from an earlier pass skips
    the kernel check and evaluates only the kept equations.  dz and d2z share
    one factorisation of the pinned square system.
    """
    system = completeness_system(tri, cusp)
    num, den = invariants(tri).tau_pairs[cusp]
    with mp.workprec(shapes.precision_bits + 30):
        z = shapes.point()
        if curve is None:
            jacobian = system_jacobian(system, z)
            pin, kept = curve_pin(jacobian, shapes.precision_bits)
            rows = [jacobian[i] for i in kept]
        else:
            pin, kept = curve
            rows = system_jacobian([system[i] for i in kept], z)
        eqs = [system[i] for i in kept]
        # M, the kept rows without the pin column, is factored once
        solve = pinned_factor(rows, pin)
        # first derivatives: M u' = -v, columns split by the pinned variable
        dz, tangent = curve_velocity(rows, pin, solve)
        # second derivatives: M u'' = -(dz^T Hess dz)
        d2z = solve([-second_derivative_along(eq.cleared.terms, z, dz) for eq in eqs])
        N = sum_value(num.terms, z)
        D = sum_value(den.terms, z)
        # the tau sums' gradients, in block form, dotted exactly with dz and
        # with d2z, each dot product rounded once
        width, steps = block_width(), [[block(v) for v in dz], [block(v) for v in d2z]]
        dN, dD = z.gradient_forms(num.terms), z.gradient_forms(den.terms)
        N1, N2, D1, D2 = (to_mpc(dot(g, w, width)) for g in (dN, dD) for w in steps)
        # second directional derivatives along the curve:
        N2 += second_derivative_along(num.terms, z, dz)
        D2 += second_derivative_along(den.terms, z, dz)
        d_tau = (N1 * D - N * D1) / D ** 2
        d2_tau = (N2 * D - N * D2) / D ** 2 - 2 * D1 * (N1 * D - N * D1) / D ** 3
    return {
        "d_tau": d_tau,
        "d2_tau": d2_tau,
        "dz": dz,
        "d2z": d2z,
        "pin": pin,
        "kept": kept,
        "tangent": tangent,
    }


def isolation_verdict(tri: IdealTriangulation, cusp: int, *, start: SolveResult,
                      doubled: SolveResult | None = None) -> IsolationEvidence:
    """Test whether the cusp parameter provably varies along the curve
    where this cusp stays complete, at the complete structure `start`, as
    `solve_complete` returns it, and at its precision.

    Order-1 and order-2 derivative tests run first; continuation sampling
    is the fallback.  Every piece of evidence is recomputed at doubled
    precision and must agree to half the working digits before it is
    believed.  A nonzero certified derivative or spread yields NotIsolated;
    anything else is Inconclusive (constancy is never asserted).  The
    doubled-precision structure is `doubled`, or `doubled_structure` of
    `start` when none is given; a `doubled` at a precision other than
    twice that of `start` raises ValueError, and a failed `start` raises
    SolveError.
    """
    precision_bits = start.shapes.precision_bits
    tol = mp.mpf(10) ** (-TOL_DIGITS * precision_bits // 256)
    if doubled is not None and doubled.shapes.precision_bits != 2 * precision_bits:
        raise ValueError(f"doubled solved at {doubled.shapes.precision_bits} bits, "
                         f"not at {2 * precision_bits}, twice the precision of start")
    if not start.success:
        raise SolveError("complete solve failed; no isolation test possible")
    cusp_name = tri.cusps[cusp].name
    notes = []

    info = tau_derivatives(tri, cusp, start.shapes)
    # recompute at doubled precision; require agreement to half the digits
    start_hi = doubled or doubled_structure(tri, start)
    info_hi = tau_derivatives(tri, cusp, start_hi.shapes, curve=(info["pin"], info["kept"]))
    agree_tol = mp.mpf(2) ** (-precision_bits // 2)

    def certified(key):
        lo, hi = info[key], info_hi[key]
        return abs(lo - hi) < agree_tol * (1 + abs(hi))

    d_tau, d2_tau = info["d_tau"], info["d2_tau"]
    verdict, order, spread = "Inconclusive", None, None
    if abs(d_tau) > tol and certified("d_tau"):
        verdict, order = "NotIsolated", 1
    elif abs(d2_tau) > tol and certified("d2_tau"):
        verdict, order = "NotIsolated", 2
    else:
        # continuation fallback: the spread of the traced values at p,
        # certified by the trace at 2p
        spreads = []
        try:
            for bits, leg in ((precision_bits, start), (2 * precision_bits, start_hi)):
                samples = trace_completeness_curve(
                    tri, cusp, n_points=CONTINUATION_POINTS, step=CONTINUATION_STEP,
                    precision_bits=bits, start=leg)
                spreads.append(max(abs(t - samples[0][1]) for _, t in samples[1:]))
        except SolveError as exc:
            notes.append(f"continuation failed: {exc}")
        spread = spreads[0] if spreads else None
        if len(spreads) == 2 and spread > tol \
                and abs(spread - spreads[1]) < agree_tol * (1 + spreads[1]):
            verdict = "NotIsolated"
        if verdict == "Inconclusive":
            notes.append(
                "no certified variation found to order 2 or along the traced curve; "
                "constancy is NOT certified by this outcome"
            )
    return IsolationEvidence(
        cusp=cusp_name, jacobian_rank=len(info["kept"]), tangent=tuple(info["tangent"]),
        d_tau=d_tau, d2_tau=d2_tau, continuation_spread=spread,
        verdict=verdict, order=order, pin_index=info["pin"], notes=tuple(notes),
    )
