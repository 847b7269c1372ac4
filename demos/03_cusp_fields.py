"""Cusp parameters and their number fields.

The cusp parameter is the exact pair (tau(longitude), tau(meridian)),
divided only at evaluation time.  Its value at the complete structure is
an algebraic number; lattice reduction recovers a minimal polynomial and
the field class decides the rigid-cusp test: only Q(i) and Q(sqrt(-3))
are compatible with covering a rigid Euclidean orbifold.  A relation found
at p bits is confirmed on the value at twice that precision, taken at the
structure polished to 2p bits.
"""
from mpmath import mp

import cuspforge as cf
from cuspforge.isolation import doubled_structure
from cuspforge.numberlab import algdep, classify_field, rigid_compatible
from cuspforge.solver import solve_complete

for name in ("whitehead", "622", "berge"):
    tri = cf.load_fixture(name)
    solved = solve_complete(tri, 256, seed=0)
    doubled = doubled_structure(tri, solved)
    for cusp in tri.cusps:
        pair = cf.cusp_parameter(tri, cusp)
        value = cf.evaluate_cusp_parameter(pair, solved.shapes)
        with mp.workprec(512 + 30):
            poly = algdep(cf.evaluate_cusp_parameter(pair, doubled.shapes),
                          max_degree=12, precision_bits=256)
        fc = classify_field(poly)
        print(f"{tri.name}.{cusp.name}:")
        print(f"  parameter = {mp.nstr(value, 20)}")
        print(f"  minpoly   = {poly}  (residual {mp.nstr(poly.residual, 3)})")
        print(f"  field     = {fc}, rigid-compatible: {rigid_compatible(fc)}")
    print()

print("note: recognition is evidence from non-verified computation, not a proof")
