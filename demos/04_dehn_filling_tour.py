"""Dehn fillings of one cusp of the Whitehead-link complement.

The (1, n) fillings of the second cusp run through the twist-knot
complements.  The filled solver ramps the log-holonomy target to 2 pi i,
tracking branches (the small fillings genuinely leave the principal log
branch), and the first cusp's parameter at each filled structure still
obeys the one-variable curve formula 4x/(1-x^2) - 2.

Expected picture: exactly one of n = +-1 is the hyperbolic filling with an
Eisenstein-quadratic cusp field (the knot with hidden symmetries); its
mirror slope collapses to a flat real solution; |n| >= 2 give fields of
degree 3 and up, killing the rigid-cusp criterion for those knots.

Why fills sample the isolation curve: filling the second cusp leaves the
first one complete, so every filled structure lies on the curve of
structures keeping the first cusp complete, the curve along which the
isolation test differentiates the first cusp's parameter.  That is the
paper's link between the fillings and the cusp parameter as a rational
function on that curve.  With s the pinned coordinate's offset from the
complete structure, tau = tau_0 + d_tau s + d2_tau s^2 / 2 + O(s^3); s
shrinks like 1/n, so doubling n divides the error of that Taylor
polynomial by about 8.
"""
from mpmath import mp

import cuspforge as cf
from cuspforge.isolation import tau_derivatives
from cuspforge.numberlab import algdep, classify_field
from cuspforge.solver import SolveError, doubled_filling, solve_complete, solve_filled

tri = cf.load_fixture("whitehead")
pair = cf.cusp_parameter(tri, tri.cusps[0])
# each filling runs its own machine-precision start search and ramps from
# that float root; only the Taylor check below needs the complete structure
complete = solve_complete(tri, precision_bits=256, seed=0)

print(" n   geometric  cusp parameter               field")
for n in range(-5, 6):
    if n == 0:
        continue
    filling = ["complete", (1, n)]
    try:
        result = solve_filled(tri, filling, precision_bits=256)
        # algdep confirms its relation at twice the precision
        doubled = doubled_filling(tri, filling, result)
    except SolveError as exc:
        print(f"{n:+d}   (solver: {exc})")
        continue
    value = cf.evaluate_cusp_parameter(pair, result.shapes)
    x = result.shapes.z[1]
    residual = abs(value - (4 * x / (1 - x ** 2) - 2))
    with mp.workprec(512 + 30):
        fc = classify_field(algdep(cf.evaluate_cusp_parameter(pair, doubled.shapes), 12, 256))
    flag = "yes" if result.geometric and not result.degenerate else "no "
    print(f"{n:+d}   {flag}        {mp.nstr(value, 12):28s} {fc}"
          f"   (curve-formula residual {mp.nstr(residual, 2)})")

print("\nmeridian filling (1, 0) re-closes the solid torus:")
result = solve_filled(tri, ["complete", (1, 0)], precision_bits=256)
print("  degenerate:", result.degenerate, "| notes:", "; ".join(result.notes))

print("\nlarge fillings against the isolation derivatives of the first cusp:")
info = tau_derivatives(tri, 0, complete.shapes)
tau0 = cf.evaluate_cusp_parameter(pair, complete.shapes)
pin = info["pin"]
for n in (20, 40, -20, -40):
    result = solve_filled(tri, ["complete", (1, n)], precision_bits=256)
    s = result.shapes.z[pin] - complete.shapes.z[pin]
    taylor = tau0 + info["d_tau"] * s + info["d2_tau"] * s ** 2 / 2
    error = abs(cf.evaluate_cusp_parameter(pair, result.shapes) - taylor)
    print(f"{n:+d}   |s| = {mp.nstr(abs(s), 3):8s} Taylor error {mp.nstr(error, 3)}")
