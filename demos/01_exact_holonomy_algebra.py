"""Tour of the exact rational-function layer.

Every corner of an ideal tetrahedron with shape z carries one of the
parameters z, 1/(1-z), (z-1)/z.  Products of corner parameters are signed
monomials in the atoms z_i and (1-z_i), so the dilation of a peripheral
curve is a single monomial and the translation is a short alternating sum
of partial products.  Nothing here is floating point until a function's
`evaluate` is called.
"""
from mpmath import mp

import cuspforge as cf

mp.prec = 280

tri = cf.load_fixture("whitehead")
print(f"{tri.name}: {tri.n_tet} tetrahedra, {len(tri.edges)} edge classes,",
      f"{len(tri.cusps)} cusps")

print("\nedge equations (each monomial = 1):")
for i, edge in enumerate(tri.edges):
    print(f"  {edge.label:12s} {tri.edge_equation(i)}")

product = cf.SignedMonomial.one(tri.n_tet)
for i in range(len(tri.edges)):
    product = product * tri.edge_equation(i)
print("product of all edge equations:", product, "(redundancy of the system)")

c1 = tri.cusps[0]
print("\nperipheral dilations (c1):")
print("  mu(m) =", cf.mu(tri, c1.meridian))
print("  mu(l) =", cf.mu(tri, c1.longitude))
print("translations:")
print("  tau(m) =", cf.tau(tri, c1.meridian))
print("  tau(l) =", cf.tau(tri, c1.longitude))

# the homomorphism and cocycle laws are exact, not numerical
ml = cf.concat_curves(c1.meridian, c1.longitude)
assert cf.mu(tri, ml) == cf.mu(tri, c1.meridian) * cf.mu(tri, c1.longitude)
print("\nmu(concat(m, l)) == mu(m) * mu(l) as canonical monomials")

shapes = cf.ShapeAssignment.from_values([0.3 + 1.1j, -0.2 + 0.8j, 0.5 + 0.4j, 1.2 + 0.9j], 256)
lhs = cf.tau(tri, ml).evaluate(shapes)
rhs = cf.tau(tri, c1.meridian).evaluate(shapes) + \
    cf.mu(tri, c1.meridian).as_sum().evaluate(shapes) * cf.tau(tri, c1.longitude).evaluate(shapes)
print("cocycle tau(ml) = tau(m) + mu(m) tau(l): |difference| =",
      mp.nstr(abs(lhs - rhs), 3))

# exact derivatives stay in the same ring
d = cf.mu(tri, c1.meridian).as_sum().derivative(1)
print("\nd mu(m)/dz1 =", d)
