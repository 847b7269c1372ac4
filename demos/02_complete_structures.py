"""Complete hyperbolic structures of the three bundled link complements.

The solver searches for a start in machine precision on the log form of
the gluing equations, then polishes it by damped Newton on the cleared
polynomial system (edge equations plus both peripheral dilations of every
cusp set to 1) and certifies the residual at doubled precision.  All three
land on recognizable algebraic points.
"""
import time

from mpmath import mp

import cuspforge as cf
from cuspforge.solver import solve_complete

for name in ("whitehead", "622", "berge"):
    tri = cf.load_fixture(name)
    t0 = time.time()
    result = solve_complete(tri, precision_bits=256, seed=0)
    dt = time.time() - t0
    print(f"{tri.name}: residual {mp.nstr(result.residual, 4)}, "
          f"geometric={result.geometric}, {result.iterations} iterations, "
          f"{dt:.2f}s")
    for i, z in enumerate(result.shapes.z):
        print(f"  z{i} = {mp.nstr(z, 30)}")
    print()

# sanity: the six-tetrahedron solution's first shape satisfies 3z^2-3z+1
tri = cf.load_fixture("622")
z = solve_complete(tri, 256).shapes.z[0]
print("622 first shape satisfies 3 z^2 - 3 z + 1 = 0:",
      mp.nstr(abs(3 * z ** 2 - 3 * z + 1), 3))
