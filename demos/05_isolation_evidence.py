"""Geometric-isolation testing.

A cusp is geometrically isolated when its shape ignores fillings of the
other cusp, equivalently when its parameter function is constant on the
curve of structures keeping it complete.  Constancy cannot be certified
numerically, but non-constancy can: a certified nonzero derivative at the
complete structure (order 1 or 2) or a certified spread along the traced
curve.  The verdict is therefore NotIsolated(...) or Inconclusive.

The four-regular-tetrahedra fixture is the instructive case: the first
derivative vanishes identically, and the obstruction only appears in the
second derivative of the pinned implicit system.
"""
from mpmath import mp

import cuspforge as cf
from cuspforge.isolation import isolation_verdict, tau_derivatives
from cuspforge.solver import doubled_structure, solve_complete, trace_completeness_curve

for name in ("whitehead", "622", "berge"):
    tri = cf.load_fixture(name)
    solved = solve_complete(tri, 256, seed=0)
    # the 512-bit polish that certifies the evidence of every cusp
    doubled = doubled_structure(tri, solved)
    for i, cusp in enumerate(tri.cusps):
        ev = isolation_verdict(tri, i, start=solved, doubled=doubled)
        print(f"{tri.name}.{cusp.name}: {ev.label}")
        print(f"  |d_tau| = {mp.nstr(abs(ev.d_tau), 6)}, "
              f"|d2_tau| = {mp.nstr(abs(ev.d2_tau), 6)}")
    print()

# the second-derivative machinery, in detail, on the regular fixture
tri = cf.load_fixture("berge")
solved = solve_complete(tri, 256, seed=0)
info = tau_derivatives(tri, 0, solved.shapes)
print("pinned coordinate:", info["pin"])
print("dz/dt  =", [mp.nstr(v, 8) for v in info["dz"]])
print("d2z/dt2 =", [mp.nstr(v, 8) for v in info["d2z"]])
print("first shape accelerates as i/sqrt(3) =", mp.nstr(1j / mp.sqrt(3), 8))

# and continuation confirms the quadratic onset
samples = trace_completeness_curve(tri, 0, n_points=5, step=1e-3,
                                   precision_bits=256, start=solved)
tau0 = samples[0][1]
print("\ntraced |tau(k h) - tau(0)| for h = 1e-3:")
for k, (_, t) in enumerate(samples[1:], start=1):
    print(f"  k={k}: {mp.nstr(abs(t - tau0), 4)}")
