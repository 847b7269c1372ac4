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
"""
from mpmath import mp

import cuspforge as cf
from cuspforge.numberlab import algdep, classify_field
from cuspforge.solver import SolveError, solve_complete, solve_filled

tri = cf.load_fixture("whitehead")
pair = cf.cusp_parameter(tri, tri.cusps[0])
# every filling starts from the one complete structure, at its precision
complete = solve_complete(tri, precision_bits=256, seed=0)

print(" n   geometric  cusp parameter               field")
for n in range(-5, 6):
    if n == 0:
        continue
    try:
        result = solve_filled(tri, ["complete", (1, n)], start=complete)
    except SolveError as exc:
        print(f"{n:+d}   (solver: {exc})")
        continue
    value = cf.evaluate_cusp_parameter(pair, result.shapes)
    x = result.shapes.z[1]
    residual = abs(value - (4 * x / (1 - x ** 2) - 2))
    fc = classify_field(algdep(value, 12, 256))
    flag = "yes" if result.geometric and not result.degenerate else "no "
    print(f"{n:+d}   {flag}        {mp.nstr(value, 12):28s} {fc}"
          f"   (curve-formula residual {mp.nstr(residual, 2)})")

print("\nmeridian filling (1, 0) re-closes the solid torus:")
result = solve_filled(tri, ["complete", (1, 0)], start=complete)
print("  degenerate:", result.degenerate, "| notes:", "; ".join(result.notes))
