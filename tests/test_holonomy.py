"""Exact monomial algebra and the holonomy functions on the fixtures.

Expected symbolic values are checked two ways, following the same split
everywhere: identities that live in one or two variables are verified as
cleared-denominator polynomial identities with sympy (the independent
oracle), and multivariate identities are verified by evaluation at seeded
random rational points away from the degeneracy guard.
"""

import random

import pytest
import sympy as sp
from mpmath import mp

import cuspforge as cf
from cuspforge import blockform
from cuspforge.holonomy import (
    DEGENERACY_GUARD,
    DegenerateShapeError,
    MonomialSum,
    Point,
    ShapeAssignment,
    SignedMonomial,
    cusp_parameter,
    evaluate_cusp_parameter,
    log_gradient,
    mu,
    second_derivative_along,
    sum_value,
    tau,
    term_value,
)
from cuspforge.isolation import tau_derivatives
from cuspforge.solver import completeness_system

from conftest import PRECISION, count_mpmath_arithmetic, rational_point_sampler, take


def word(n, *pairs):
    return SignedMonomial.from_word(n, pairs)


def sym_vars(n):
    return sp.symbols(f"z0:{n}")


def monomial_expr(m: SignedMonomial, zs):
    expr = sp.Integer(m.sign)
    for z, a, b in zip(zs, m.a, m.b):
        expr *= z ** a * (1 - z) ** b
    return expr


def sum_expr(s: MonomialSum, zs):
    expr = sp.Integer(0)
    for (a, b), coeff in s.terms.items():
        term = sp.Integer(coeff)
        for z, az, bz in zip(zs, a, b):
            term *= z ** az * (1 - z) ** bz
        expr += term
    return expr


def rational_functions_equal(lhs, rhs) -> bool:
    """Cleared-denominator comparison of two sympy rational functions."""
    diff = sp.together(sp.expand(lhs - rhs))
    return sp.simplify(sp.numer(diff)) == 0


# ---------------------------------------------------------------------------
# monomial ring basics


def test_corner_parameter_monomials():
    assert word(1, (0, "E0")) == SignedMonomial(1, (1,), (0,))
    assert word(1, (0, "E1")) == SignedMonomial(1, (0,), (-1,))
    assert word(1, (0, "E2")) == SignedMonomial(-1, (-1,), (1,))


def test_corner_triple_is_minus_one():
    triple = word(2, (1, "E0"), (1, "E1"), (1, "E2"))
    assert triple == SignedMonomial(-1, (0, 0), (0, 0))
    assert (triple * triple).is_one()


def test_canonical_strings():
    m = SignedMonomial(-1, (1, 0, 0, 1), (-2, 0, 0, 0))
    assert m.canonical_string() == "-z0^1*(1-z0)^-2*z3^1"
    s = m.as_sum() + MonomialSum.constant(3, 4)
    assert "3*1" in s.canonical_string() and "z0^1" in s.canonical_string()
    assert MonomialSum.zero().canonical_string() == "0"


def test_monomial_sum_merging():
    one = SignedMonomial.one(2).as_sum()
    assert (one - one).is_zero()
    m = word(2, (0, "E0")).as_sum()
    assert (m + m).terms == {((1, 0), (0, 0)): 2}


def test_evaluate_constant_monomial():
    shapes = ShapeAssignment.from_values([2 + 1j, 0.5 + 0.5j], PRECISION)
    assert SignedMonomial.one(2).evaluate(shapes) == 1
    assert isinstance((-SignedMonomial.one(2)).evaluate(shapes), mp.mpc)


def test_degeneracy_guard():
    shapes = ShapeAssignment.from_values([1e-14 + 0j, 0.5 + 0.5j], PRECISION)
    with pytest.raises(DegenerateShapeError):
        SignedMonomial.one(2).evaluate(shapes)


def test_derivative_of_constant_is_zero():
    assert SignedMonomial.one(3).as_sum().derivative(1).is_zero()


def test_derivative_matches_finite_differences():
    # central differences at step 1e-8 with 256-bit arithmetic
    rng = random.Random(4)
    with mp.workprec(PRECISION):
        for _ in range(6):
            m = SignedMonomial(
                rng.choice([1, -1]),
                tuple(rng.randint(-3, 3) for _ in range(3)),
                tuple(rng.randint(-3, 3) for _ in range(3)),
            )
            z = [mp.mpc(rng.uniform(-2, 2), rng.uniform(0.2, 2)) for _ in range(3)]
            i = rng.randrange(3)
            h = mp.mpf("1e-8")
            zp = list(z)
            zm = list(z)
            zp[i] += h
            zm[i] -= h
            sp_ = ShapeAssignment(tuple(zp), PRECISION)
            sm_ = ShapeAssignment(tuple(zm), PRECISION)
            fd = (m.evaluate(sp_) - m.evaluate(sm_)) / (2 * h)
            exact = m.derivative(i).evaluate(ShapeAssignment(tuple(z), PRECISION))
            assert abs(fd - exact) <= mp.mpf("1e-10") * max(1, abs(exact))


def test_berge_edge_partial_derivative_value(berge):
    # d/dz1 of the cleared completeness equation 1 - z1 (1 - z3), at the
    # complete point: hand differentiation gives -(1 - eta)
    eta = mp.mpc(0.5, mp.sqrt(3) / 2)
    m_mu = mu(berge, berge.cusps[0].meridian)
    cleared = m_mu.cleared()
    shapes = ShapeAssignment.from_values([eta] * 4, PRECISION)
    d = cleared.derivative(0).evaluate(shapes)
    expected = -(1 - eta)
    # cleared() fixes the overall normalization only up to sign
    assert min(abs(d - expected), abs(d + expected)) < mp.mpf(2) ** -240


# ---------------------------------------------------------------------------
# printed formulas for the fixtures


def test_whitehead_edge_equations(whitehead):
    zs = sym_vars(4)
    w, x, y, z = zs
    z1 = lambda t: 1 / (1 - t)
    z2 = lambda t: (t - 1) / t
    eqs = [monomial_expr(m, zs) for m in whitehead.edge_equations()]
    assert rational_functions_equal(eqs[0], w * x * y * z)
    assert rational_functions_equal(eqs[1], w * x * y * z)
    assert rational_functions_equal(
        eqs[2], z1(w) * z1(x) * z1(y) * z1(z) * z2(w) ** 2 * z2(x) ** 2
    )


def test_622_half_edge_equation(link622):
    # the edge labeled (1/2): z2 * zeta2(z1) * zeta2(z1')
    zs = sym_vars(6)
    z2f = lambda t: (t - 1) / t
    labels = [e.label for e in link622.edges]
    idx = labels.index("(1/2)")
    assert rational_functions_equal(
        monomial_expr(link622.edge_equation(idx), zs),
        zs[2] * z2f(zs[0]) * z2f(zs[1]),
    )


def test_single_tetrahedron_toy_edge():
    # all six corner slots of one tetrahedron on a single edge: (z zeta1 zeta2)^2 = 1
    toy = word(1, (0, "E0"), (0, "E1"), (0, "E2"), (0, "E0"), (0, "E1"), (0, "E2"))
    assert toy.is_one()


def test_622_meridian_raw_monomial(link622):
    # raw display: -zeta1(z2') z3 zeta1(z2) zeta1(z1) z1 zeta1(z1')
    product = word(
        6, (3, "E1"), (4, "E0"), (2, "E1"), (0, "E1"), (0, "E0"), (1, "E1")
    )
    assert mu(link622, link622.cusps[0].meridian) == -product


def test_622_meridian_substituted_form(link622):
    # after eliminating z2, z2' through the (1/2) relations the meridian
    # dilation becomes -z1 (1-z1)(1-z1') z3 / (1 - z1 - z1')^2
    zs = sym_vars(6)
    z1, z1p, z2, z2p, z3, z3p = zs
    raw = monomial_expr(mu(link622, link622.cusps[0].meridian), zs)
    s = z1 * z1p / ((z1 - 1) * (z1p - 1))
    target = -z1 * (1 - z1) * (1 - z1p) * z3 / (1 - z1 - z1p) ** 2
    assert rational_functions_equal(raw.subs({z2: s, z2p: s}), target)


def test_berge_meridian_monomial(berge):
    zs = sym_vars(4)
    z1f = lambda t: 1 / (1 - t)
    raw = monomial_expr(mu(berge, berge.cusps[0].meridian), zs)
    assert rational_functions_equal(raw, -z1f(zs[0]) * z1f(zs[2]) * zs[2])


def test_trivial_mu_two_empty_vertices():
    curve = cf.CuspCurve(
        name="toy", vertices=(cf.CurveVertex(()), cf.CurveVertex(())), w0_word=(), anchor="t/f"
    )
    tri = cf.IdealTriangulation(name="toy", n_tet=1, edges=(), cusps=())
    assert mu(tri, curve).is_one()


def test_berge_tau_meridian_is_one(berge):
    t = tau(berge, berge.cusps[0].meridian)
    assert t.terms == {(((0,) * 4), ((0,) * 4)): 1}


def test_berge_cusp_parameter_is_zeta2(berge):
    zs = sym_vars(4)
    num, den = cusp_parameter(berge, berge.cusps[0])
    assert sum_expr(den, zs) == 1
    assert rational_functions_equal(sum_expr(num, zs), (zs[0] - 1) / zs[0])


def test_whitehead_longitude_w_words_restricted(whitehead):
    # restricted to the structures keeping the first cusp complete
    # ((w, x, y, z) = (-1/x, x, -1/x, x)), the four fan products are
    # x/(1-x), -1, (1-x)/(x(x+1)), -1
    x = sp.Symbol("x")
    restricted = [-1 / x, x, -1 / x, x]

    def corner_value(c):
        t = restricted[c.tet]
        return {"E0": t, "E1": 1 / (1 - t), "E2": (t - 1) / t}[c.kind]

    l1 = whitehead.cusps[0].longitude
    w0 = sp.prod([corner_value(c) for c in l1.w0_word])
    ws = [sp.prod([corner_value(c) for c in v.word]) for v in l1.vertices]
    targets = [x / (1 - x), sp.Integer(-1), (1 - x) / (x * (x + 1)), sp.Integer(-1)]
    for got, want in zip([w0] + ws[1:], targets):
        assert rational_functions_equal(got, want)


def test_whitehead_cusp_parameter_on_curve(whitehead):
    # tau_c1 = 4x/(1-x^2) - 2 along the same restriction
    x = sp.Symbol("x")
    restricted = [-1 / x, x, -1 / x, x]
    zs = sym_vars(4)
    num, den = cusp_parameter(whitehead, whitehead.cusps[0])
    num_x = sum_expr(num, zs).subs(dict(zip(zs, restricted)))
    den_x = sum_expr(den, zs).subs(dict(zip(zs, restricted)))
    assert rational_functions_equal(num_x / den_x, 4 * x / (1 - x ** 2) - 2)


def test_whitehead_cusp_parameter_at_complete_point(whitehead):
    shapes = ShapeAssignment.from_values([1j, 1j, 1j, 1j], PRECISION)
    value = evaluate_cusp_parameter(cusp_parameter(whitehead, whitehead.cusps[0]), shapes)
    assert abs(value - mp.mpc(-2, 2)) < mp.mpf(2) ** -200


def test_berge_mu_at_eta_is_one(berge):
    eta = mp.mpc(0.5, mp.sqrt(3) / 2)
    shapes = ShapeAssignment.from_values([eta] * 4, PRECISION)
    v = mu(berge, berge.cusps[0].meridian).evaluate(shapes)
    assert abs(v - 1) < mp.mpf(2) ** -240


def test_622_cusp_parameter_at_complete_point(link622):
    z1 = (3 + mp.sqrt(-3)) / 6
    z2 = (-1 + mp.sqrt(-3)) / 2
    z3 = (3 + mp.sqrt(-3)) / 2
    shapes = ShapeAssignment.from_values([z1, z1, z2, z2, z3, z3], PRECISION)
    value = evaluate_cusp_parameter(cusp_parameter(link622, link622.cusps[0]), shapes)
    assert abs(value - (1 + mp.sqrt(-3))) < mp.mpf(2) ** -200


def test_622_tau_longitude_on_completeness_locus(link622):
    # after the completeness substitutions, tau(l) = z1/(1-z1') + z1'/(1-z1)
    # as a function on the curve p = 0; checked at >= 20 points on the curve
    rng = random.Random(9)
    checked = 0
    with mp.workprec(PRECISION):
        pair = cusp_parameter(link622, link622.cusps[0])
        while checked < 20:
            z1 = mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5))
            # coefficients of the curve polynomial in z1' given numeric z1
            cpoly = [z1, z1 ** 2 - 1, z1 ** 3 - 3 * z1 + 2, -z1 ** 2 + 2 * z1 - 1]
            for z1p in mp.polyroots(cpoly, maxsteps=120, extraprec=80):
                s = z1 * z1p / ((z1 - 1) * (z1p - 1))
                D = (1 - z1 - z1p) ** 2
                z3 = -D / (z1 * (1 - z1) * (1 - z1p))
                z3p = -D / (z1p * (1 - z1) * (1 - z1p))
                shapes = ShapeAssignment((z1, z1p, s, s, z3, z3p), PRECISION)
                if shapes.is_degenerate():
                    continue
                tau_l = pair[0].evaluate(shapes)
                target = z1 / (1 - z1p) + z1p / (1 - z1)
                assert abs(tau_l - target) < mp.mpf(2) ** -200
                checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# structural identities


def test_mu_is_canonical_homomorphism(whitehead, link622, berge):
    for tri in (whitehead, link622, berge):
        for cusp in tri.cusps:
            a, b = cusp.meridian, cusp.longitude
            assert mu(tri, cf.concat_curves(a, b)) == mu(tri, a) * mu(tri, b)
            assert mu(tri, cf.concat_curves(b, a)) == mu(tri, a) * mu(tri, b)
            assert mu(tri, cf.concat_curves(a, a)) == mu(tri, a) * mu(tri, a)


def test_tau_cocycle(whitehead, link622, berge):
    for tri in (whitehead, link622, berge):
        points = take(rational_point_sampler(tri.n_tet, seed=17), 20)
        for cusp in tri.cusps:
            a, b = cusp.meridian, cusp.longitude
            ab = cf.concat_curves(a, b)
            for shapes in points:
                lhs = tau(tri, ab).evaluate(shapes)
                rhs = tau(tri, a).evaluate(shapes) + mu(tri, a).as_sum().evaluate(
                    shapes) * tau(tri, b).evaluate(shapes)
                assert abs(lhs - rhs) < mp.mpf(2) ** -180


def test_completeness_and_nonvanishing_at_solution(solved, whitehead, link622, berge):
    for tri in (whitehead, link622, berge):
        shapes = solved[tri.name].shapes
        for cusp in tri.cusps:
            for curve in (cusp.meridian, cusp.longitude):
                assert abs(mu(tri, curve).evaluate(shapes) - 1) < mp.mpf("1e-40")
                assert abs(tau(tri, curve).evaluate(shapes)) > mp.mpf("1e-10")
            value = evaluate_cusp_parameter(cusp_parameter(tri, cusp), shapes)
            assert abs(value.imag) > mp.mpf("0.5")


def test_cusp_parameter_denominator_guard(whitehead):
    # tau(m1) = 1 never vanishes, so force a denominator through a curve
    # whose translation dies at a crafted point: use the inverse trick
    pair = cusp_parameter(whitehead, whitehead.cusps[0])
    shapes = ShapeAssignment.from_values([1j, 1j, 1j, 1j], PRECISION)
    assert abs(evaluate_cusp_parameter(pair, shapes) - mp.mpc(-2, 2)) < mp.mpf("1e-40")


# ---------------------------------------------------------------------------
# the closed-form evaluator against exact derivative sums


def _hessian_reference(s: MonomialSum, shapes, v):
    """v^T Hess(s) v contracted from the exact second-derivative sums."""
    total = mp.mpc(0)
    for i, vi in enumerate(v):
        first = s.derivative(i)
        for j, vj in enumerate(v):
            total += vi * vj * first.derivative(j).evaluate(shapes)
    return total


def _size_before_cancellation(s: MonomialSum, z, v):
    """A bound on every summand of v^T Hess(s) v, which sets the scale of
    its rounding error: sum |T| (sum_i |v_i| (|a_i/z_i| + |b_i/(1-z_i)|))^2."""
    return sum(abs(term_value(c, a, b, z)) * sum(
        abs(vi) * (abs(ai) / abs(zi) + abs(bi) / abs(1 - zi))
        for zi, ai, bi, vi in zip(z, a, b, v)) ** 2
        for (a, b), c in s.terms.items())


def _evaluator_cases(tri, complete_shapes):
    """(sums, point, direction) for one fixture: its cleared completeness
    equations and tau sums, at the complete structure along each cusp's
    curve tangent and at a seeded random point along a random direction."""
    rng = random.Random(11)
    random_point = next(rational_point_sampler(tri.n_tet, seed=11))
    for cusp in range(len(tri.cusps)):
        sums = [eq.cleared for eq in completeness_system(tri, cusp)]
        sums += list(cusp_parameter(tri, tri.cusps[cusp]))
        dz = tau_derivatives(tri, cusp, complete_shapes)["dz"]
        yield sums, complete_shapes, dz
        v = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(tri.n_tet)]
        yield sums, random_point, v


def test_closed_form_derivatives_match_exact_sums(solved, whitehead, link622, berge):
    tol = mp.mpf(2) ** -(PRECISION - 10)
    with mp.workprec(PRECISION):
        for tri in (whitehead, link622, berge):
            for sums, shapes, v in _evaluator_cases(tri, solved[tri.name].shapes):
                z = list(shapes.z)
                for s in sums:
                    assert sum_value(s.terms, z) == s.evaluate(shapes)
                    got = second_derivative_along(s.terms, z, v)
                    ref = _hessian_reference(s, shapes, v)
                    scale = _size_before_cancellation(s, z, v)
                    assert abs(got - ref) <= tol * scale, (tri.name, str(s))
                    for (a, b), c in s.terms.items():
                        term = MonomialSum({(a, b): c})
                        value = term_value(c, a, b, z)
                        for i, g in enumerate(log_gradient(a, b, z)):
                            ref_g = term.derivative(i).evaluate(shapes) / value
                            assert abs(g - ref_g) <= tol * abs(ref_g)


# ---------------------------------------------------------------------------
# the memoised evaluator against a naive product of powers


def _naive_term(c, a, b, z):
    value = c
    for zi, ai, bi in zip(z, a, b):
        if ai:
            value *= zi ** ai
        if bi:
            value *= (1 - zi) ** bi
    return value


def _naive_sum(terms, z):
    total = 0 * z[0]
    for (a, b), c in terms.items():
        total += _naive_term(c, a, b, z)
    return total


def _naive_log_gradient(a, b, z):
    return [(ai / zi if ai else 0) - (bi / (1 - zi) if bi else 0)
            for zi, ai, bi in zip(z, a, b)]


def _naive_gradient(terms, z):
    gradient = [0 * z[0]] * len(z)
    for (a, b), c in terms.items():
        t = _naive_term(c, a, b, z)
        for i, g in enumerate(_naive_log_gradient(a, b, z)):
            if a[i] or b[i]:
                gradient[i] += t * g
    return gradient


def _bits(value):
    """The exact bits of a value: the _mpf_ tuples of an mpmath number, the
    repr of a Python complex (so signed zeros count), an int as itself."""
    if isinstance(value, mp.mpc):
        return value.real._mpf_, value.imag._mpf_
    return type(value).__name__, repr(value)


def _random_shapes(rng, n, bits):
    """n shapes at least 0.05 from 0 and 1: Python complex when bits is
    None, else mpmath numbers with `bits` random mantissa bits."""
    def scalar():
        if bits is None:
            return rng.uniform(-2, 2)
        return mp.mpf(rng.getrandbits(bits)) / 2 ** bits * 4 - 2

    shapes = []
    while len(shapes) < n:
        z = complex(scalar(), scalar()) if bits is None else mp.mpc(scalar(), scalar())
        if abs(z) > 0.05 and abs(1 - z) > 0.05:
            shapes.append(z)
    return shapes


def _evaluator_sums(tri):
    """Every exact sum the pipeline evaluates on one fixture: cleared
    completeness equations with their gradient sums, both tau sums with
    theirs, and the peripheral dilations as one-term sums."""
    sums = []
    for cusp in range(len(tri.cusps)):
        for eq in completeness_system(tri, cusp):
            sums.append(eq.cleared)
            sums.extend(eq.cleared.derivative(i) for i in range(tri.n_tet))
            sums.append(eq.monomial.as_sum())
        for s in cusp_parameter(tri, tri.cusps[cusp]):
            sums.append(s)
            sums.extend(s.derivative(i) for i in range(tri.n_tet))
    return sums


def _evaluate(kind, s, z, v, naive=False) -> list:
    """The values of one evaluation task at z: a sum, its terms with their
    log gradients, its second derivative along v (at mpmath points), or an
    equation's value, gradient and residual; by the naive products when
    `naive` is set."""
    if kind == "equation" and naive:
        m = s.monomial
        return [_naive_sum(s.cleared.terms, z), *_naive_gradient(s.cleared.terms, z),
                abs(_naive_term(m.sign, m.a, m.b, z) - 1)]
    if kind == "equation":
        return [s.value(z), *s.gradient(z), s.residual(z)]
    if kind == "sum":
        return [(_naive_sum if naive else sum_value)(s.terms, z)]
    if kind == "second":
        return [second_derivative_along(s.terms, z, v)]
    term, gradient = (_naive_term, _naive_log_gradient) if naive else (term_value, log_gradient)
    return [value for (a, b), c in s.terms.items()
            for value in (term(c, a, b, z), *gradient(a, b, z))]


@pytest.mark.parametrize("bits", [128, 256, 512 + 30, None],
                         ids=["128", "256", "542", "complex"])
def test_memoised_evaluator_is_bit_identical(bits, whitehead, link622, berge):
    # one Point per random point serves every sum and equation, in a
    # shuffled order, so an mpmath point's memo is filled by one kind of
    # evaluation and read by another; each value must equal, bit for bit,
    # the same evaluation on a fresh Point, and on Python complex, where a
    # Point keeps no memo, also the naive formulas; second derivatives are
    # taken at mpmath points only
    rng = random.Random(29)
    with mp.workprec(bits or 53):
        for tri in (whitehead, link622, berge):
            sums = _evaluator_sums(tri)
            sums.append(MonomialSum({
                (tuple(rng.randint(-3, 3) for _ in range(tri.n_tet)),
                 tuple(rng.randint(-3, 3) for _ in range(tri.n_tet))): rng.choice([1, -2, 3])
                for _ in range(4)}))
            eqs = [eq for cusp in range(len(tri.cusps)) for eq in completeness_system(tri, cusp)]
            for _ in range(3):
                z = _random_shapes(rng, tri.n_tet, bits)
                v = _random_shapes(rng, tri.n_tet, bits)
                point = Point(z)
                assert Point(point) is point and list(point) == z
                assert point.blocks is (bits is not None)

                kinds = ("sum", "terms", "second") if bits else ("sum", "terms")
                tasks = [(kind, s) for s in sums for kind in kinds]
                tasks += [("equation", eq) for eq in eqs]
                rng.shuffle(tasks)
                for kind, s in tasks:
                    got = [_bits(g) for g in _evaluate(kind, s, point, v)]
                    fresh = _evaluate(kind, s, Point(z), v)
                    assert got == [_bits(r) for r in fresh], (kind, str(s))
                    if bits is None:
                        naive = _evaluate(kind, s, z, v, naive=True)
                        assert got == [_bits(r) for r in naive], (kind, str(s))
                if bits is None:
                    assert vars(point) == {"blocks": False}
                    assert vars(Point([mp.mpc(z[0]), *z[1:]])) == {"blocks": False}
                # a plain sequence gets a Point of its own, with the same bits
                s = sums[0]
                assert _bits(sum_value(s.terms, z)) == _bits(sum_value(s.terms, point))


def _near_degenerate_shapes(rng, offset):
    """Four shapes, each at random either `offset` (times 1 to 2) from 0,
    as far from 1, or a random shape of modulus at most 2 sqrt(2)."""
    shapes = []
    for _ in range(4):
        t = mp.expjpi(2 * mp.mpf(rng.random())) * offset * (1 + mp.mpf(rng.random()))
        shapes.append(rng.choice([t, 1 + t, mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))]))
    return shapes


@pytest.mark.parametrize("bits", [128, 256 + 30, 512 + 30], ids=["128", "286", "542"])
def test_block_products_are_as_accurate_as_mpmath_products(bits):
    # against a product at three times the precision, over terms whose
    # shapes lie 1e-6, 1e-9 and 1e-12 from 0 or 1 (where 1 - z cancels),
    # the block-form kernel is accurate to 2^-wp of the modulus, and no
    # worse than the naive mpmath product of powers
    rng = random.Random(31)
    worst_kernel = worst_naive = 0
    with mp.workprec(bits):
        for offset in (1e-6, 1e-9, 1e-12):
            for _ in range(40):
                z = _near_degenerate_shapes(rng, offset)
                a, b = (tuple(rng.randint(-4, 4) for _ in z) for _ in range(2))
                c = rng.choice([1, -1, 3])
                got, naive = term_value(c, a, b, Point(z)), _naive_term(c, a, b, z)
                with mp.workprec(3 * bits):
                    ref = _naive_term(c, a, b, z)
                    worst_kernel = max(worst_kernel, abs(got - ref) / abs(ref))
                    worst_naive = max(worst_naive, abs(naive - ref) / abs(ref))
    assert worst_kernel <= mp.mpf(2) ** -bits
    assert worst_kernel <= worst_naive


def test_an_mpmath_point_takes_no_mpmath_arithmetic(monkeypatch, link622):
    # term_value, sum_value, log_gradient, the second derivative along a
    # random direction, the exact dot product of a gradient with it, and
    # the equations' value, gradient and residual work in block form: no
    # mpc or mpf operator runs
    rng = random.Random(37)
    with mp.workprec(PRECISION):
        z = _random_shapes(rng, link622.n_tet, PRECISION)
        v = _random_shapes(rng, link622.n_tet, PRECISION)
        eqs = completeness_system(link622, 0)
        sums = _evaluator_sums(link622)
        counts = count_mpmath_arithmetic(monkeypatch)

        point = Point(z)
        direction = [blockform.block(x) for x in v]
        for s in sums:
            sum_value(s.terms, point)
            second_derivative_along(s.terms, point, v)
            blockform.to_mpc(blockform.dot(point.gradient_forms(s.terms), direction,
                                           blockform.block_width()))
            for (a, b), c in s.terms.items():
                term_value(c, a, b, point)
                log_gradient(a, b, point)
        for eq in eqs:
            eq.value(point), eq.gradient(point), eq.residual(point)
        assert counts == {}
        # the counting sees the naive product's operators
        _naive_sum(sums[0].terms, z)
        assert counts.get(("mpc", "__mul__"), 0) > 0


def test_a_mixed_point_takes_the_scalar_path():
    # mpmath and Python complex shapes in one point: the operators of the
    # scalar types, the bits of the naive product
    with mp.workprec(PRECISION):
        z = [mp.mpc("0.3", "0.4"), complex(0.6, -0.2), mp.mpc("-1.5", "0.25")]
        point = Point(z)
        assert not point.blocks and Point(z[::2]).blocks
        terms = {((2, -1, 0), (1, 0, -2)): 3, ((0, 1, 1), (-2, 1, 0)): -1}
        assert _bits(sum_value(terms, point)) == _bits(_naive_sum(terms, z))
        for (a, b), c in terms.items():
            assert _bits(term_value(c, a, b, point)) == _bits(_naive_term(c, a, b, z))


@pytest.mark.parametrize("bits", [256, 512])
def test_degeneracy_guard_is_decided_on_squared_magnitudes(bits):
    # half and twice the guard from 0 and from 1, in eight directions: the
    # float decision is the one the mpmath moduli give
    with mp.workprec(bits):
        for factor, inside in ((0.5, True), (2, False)):
            for centre in (0, 1):
                for k in range(8):
                    v = centre + factor * DEGENERACY_GUARD * mp.expjpi(mp.mpf(k) / 4)
                    assert (abs(v) < DEGENERACY_GUARD or abs(1 - v) < DEGENERACY_GUARD) is inside
                    shapes = ShapeAssignment((mp.mpc("0.5", "0.8"), v), bits)
                    assert shapes.is_degenerate() is inside
