"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run standalone with

    pytest tests/test_acceptance.py -v -s

The -s flag shows one PASS line per criterion; a failing criterion fails
its test.  Shared solves are cached at session scope, keeping the whole
gate inside the time budget.
"""

import random
from fractions import Fraction

import sympy as sp
from mpmath import mp

import cuspforge as cf
from cuspforge.holonomy import (
    cusp_parameter,
    evaluate_cusp_parameter,
    mu,
    tau,
)
from cuspforge.isolation import doubled_structure, isolation_verdict, tau_derivatives
from cuspforge.numberlab import EISENSTEIN, GAUSSIAN, algdep, classify_field
from cuspforge.screen import ScreenOptions, screen_triangulation
from cuspforge.solver import (SolveError, completeness_system, doubled_filling, solve_filled,
                              system_jacobian)
from cuspforge.tracecalc import (
    cusp_parameter_from_traces,
    whitehead_curve_residual,
    whitehead_cusp_parameter,
    whitehead_theta,
    whitehead_trace_tuple,
)

from conftest import PRECISION


def passed(n, text):
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {text}")


def test_criterion_1_whitehead_complete(whitehead, solved):
    result = solved["whitehead"]
    assert result.success and result.geometric
    assert result.residual < mp.mpf("1e-40")
    for z in result.shapes.z:
        assert abs(z - mp.mpc(0, 1)) < mp.mpf("1e-40")
    # tau(m1) = 1 exactly, as a monomial sum
    t_m = tau(whitehead, whitehead.cusps[0].meridian)
    assert t_m.terms == {((0, 0, 0, 0), (0, 0, 0, 0)): 1}
    pair = cusp_parameter(whitehead, whitehead.cusps[0])
    value = evaluate_cusp_parameter(pair, result.shapes)
    assert abs(value - mp.mpc(-2, 2)) < mp.mpf("1e-40")
    x = result.shapes.z[1]
    assert abs(value - (4 * x / (1 - x ** 2) - 2)) < mp.mpf("1e-40")
    passed(1, "complete structure (i,i,i,i); tau(m1) = 1; tau_c1(z0) = -2+2i")


def test_criterion_2_whitehead_w_values(whitehead):
    x = sp.Symbol("x")
    restricted = [-1 / x, x, -1 / x, x]

    def value(c):
        t = restricted[c.tet]
        return {"E0": t, "E1": 1 / (1 - t), "E2": (t - 1) / t}[c.kind]

    l1 = whitehead.cusps[0].longitude
    w0 = sp.prod([value(c) for c in l1.w0_word])
    ws = [sp.prod([value(c) for c in v.word]) for v in l1.vertices]
    targets = [x / (1 - x), sp.Integer(-1), (1 - x) / (x * (x + 1)), sp.Integer(-1)]
    for got, want in zip([w0] + ws[1:], targets):
        diff = sp.together(sp.expand(got - want))
        assert sp.simplify(sp.numer(diff)) == 0
    passed(2, "restricted fan products are x/(1-x), -1, (1-x)/(x(x+1)), -1 exactly")


def test_criterion_3_622(link622, solved):
    # raw meridian monomial
    display = cf.SignedMonomial.from_word(
        6, [(3, "E1"), (4, "E0"), (2, "E1"), (0, "E1"), (0, "E0"), (1, "E1")])
    assert mu(link622, link622.cusps[0].meridian) == -display
    result = solved["622"]
    z1, z1p = result.shapes.z[0], result.shapes.z[1]
    p = (z1p ** 3 * z1 + z1p ** 2 * z1 ** 2 + z1p * z1 ** 3
         - z1p ** 2 - 3 * z1p * z1 - z1 ** 2 + 2 * z1p + 2 * z1 - 1)
    assert abs(p) < mp.mpf("1e-40")
    target = (3 + mp.sqrt(-3)) / 6
    assert abs(z1 - target) < mp.mpf("1e-35") and abs(z1p - target) < mp.mpf("1e-35")
    pair = cusp_parameter(link622, link622.cusps[0])
    value = evaluate_cusp_parameter(pair, result.shapes)
    assert abs(value - (1 + mp.sqrt(-3))) < mp.mpf("1e-35")
    # algdep confirms at 2p, on the value at the 2p structure
    with mp.workprec(2 * PRECISION + 30):
        value = evaluate_cusp_parameter(pair, doubled_structure(link622, result).shapes)
    poly = algdep(value, 12, PRECISION)
    assert poly.coefficients == (4, -2, 1)
    fc = classify_field(poly)
    assert fc.kind == EISENSTEIN
    ev = isolation_verdict(link622, 0, start=result)
    assert ev.not_isolated
    passed(3, "raw mu matches display; z0 and tau_c1 correct; field Q(sqrt(-3)); NotIsolated")


def test_criterion_4_berge(berge, solved):
    result = solved["berge"]
    eta = (1 + mp.sqrt(-3)) / 2
    for z in result.shapes.z:
        assert abs(z - eta) < mp.mpf("1e-40")
    # the pinned 3x3 system (edge gradients and the completeness gradient
    # with the second coordinate as parameter) is non-singular
    eqs = completeness_system(berge, 0)
    z = list(result.shapes.z)
    rows = system_jacobian(eqs, z)
    picked = [rows[0], rows[1], rows[4]]   # independent edge pair + mu row
    cols = [0, 2, 3]
    M2 = mp.matrix([[r[c] for c in cols] for r in picked])
    assert abs(mp.det(M2)) > 1
    info = tau_derivatives(berge, 0, result.shapes)
    assert info["pin"] == 1
    assert abs(info["dz"][0]) < mp.mpf("1e-30")
    assert abs(info["d2z"][0] - mp.mpc(0, 1) / mp.sqrt(3)) < mp.mpf("1e-25")
    ev = isolation_verdict(berge, 0, start=result)
    assert ev.not_isolated and ev.order == 2
    passed(4, "eta-point; M2 nonsingular; dz1/dz2 = 0; d2z1/dz2^2 = i/sqrt(3); order 2")


def test_criterion_5_trace_calculus():
    rng = random.Random(20)
    diffs = []
    for _ in range(20):
        t = mp.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(t) < 0.1:
            continue
        C = cusp_parameter_from_traces(whitehead_trace_tuple(t))
        assert abs(C - (t * t + 1)) < mp.mpf("1e-30")
    count = 0
    while count < 20:
        x = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(x), abs(x - 1), abs(x + 1)) < 0.05:
            continue
        _, I_b, I_ab = whitehead_theta(x)
        assert whitehead_curve_residual(I_b, I_ab) < mp.mpf("1e-30")
        diffs.append(whitehead_cusp_parameter(x) - (4 * x / (1 - x ** 2) - 2))
        count += 1
    for d in diffs:
        assert abs(d - diffs[0]) < mp.mpf("1e-30")
        assert abs(d - mp.nint(d.real)) < mp.mpf("1e-30")
    constant = int(mp.nint(diffs[0].real))
    assert constant in (2, 3)
    passed(5, f"C = I_ab^2 + 1 on the curve; theta lands on it; "
              f"trace/shape offset is the constant integer {constant}")


def test_criterion_6_algdep_suite():
    import math

    rng = random.Random(60)
    failures = 0
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if b == 0:
            b = Fraction(1, 3)
        d = rng.choice([1, 2, 3, 5, 6, 7, 11, 15])
        with mp.workprec(2 * 256):
            x = mp.mpf(a.numerator) / a.denominator + (
                mp.mpf(b.numerator) / b.denominator) * mp.sqrt(-d)
        got = algdep(x, 6, 256)
        c1 = -2 * a
        c0 = a * a + b * b * d
        den = math.lcm(c1.denominator, c0.denominator)
        coeffs = [int(c0 * den), int(c1 * den), den]
        g = math.gcd(math.gcd(abs(coeffs[0]), abs(coeffs[1])), coeffs[2])
        expected = tuple(c // g for c in coeffs)
        if got is None or got.coefficients != expected:
            failures += 1
    assert failures == 0
    assert algdep(mp.mpc(-2, 2), 8, 256).coefficients == (8, 4, 1)
    with mp.workprec(2 * 256):
        assert algdep(1 + mp.sqrt(-3), 8, 256).coefficients == (4, -2, 1)
    passed(6, "200/200 random quadratic irrationalities recovered exactly")


def test_criterion_7_filling_consistency(whitehead):
    pair = cusp_parameter(whitehead, whitehead.cusps[0])
    outcomes = {}
    for n in [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]:
        filling = ["complete", (1, n)]
        try:
            result = solve_filled(whitehead, filling, PRECISION)
            doubled = doubled_filling(whitehead, filling, result)
        except SolveError:
            outcomes[n] = ("failed", None)
            continue
        value = evaluate_cusp_parameter(pair, result.shapes)
        x = result.shapes.z[1]
        assert abs(value - (4 * x / (1 - x ** 2) - 2)) < mp.mpf("1e-30"), \
            f"(1,{n}): filled cusp parameter disagrees with the curve formula"
        with mp.workprec(2 * PRECISION + 30):
            value = evaluate_cusp_parameter(pair, doubled.shapes)
        poly = algdep(value, 12, PRECISION)
        fc = classify_field(poly)
        geometric = result.geometric and not result.degenerate
        outcomes[n] = (fc.kind, geometric)
    rigid_quadratic = {
        n for n, (kind, geom) in outcomes.items()
        if geom and kind in (GAUSSIAN, EISENSTEIN)
    }
    # the rigid-compatible-quadratic fillings sit exactly at |n| = 1: one of
    # the two slopes is the Eisenstein-field filling, the other is the flat
    # exceptional slope and never counts as a geometric quadratic result
    assert rigid_quadratic and rigid_quadratic <= {1, -1}
    assert rigid_quadratic == {n for n in (1, -1)
                               if outcomes[n][1] and outcomes[n][0] == EISENSTEIN}
    assert len(rigid_quadratic) == 1
    flat = -next(iter(rigid_quadratic))
    assert outcomes[flat][1] is False or outcomes[flat][0] == "failed"
    for n, (kind, geom) in outcomes.items():
        if abs(n) >= 2:
            assert kind not in (GAUSSIAN, EISENSTEIN), f"(1,{n}) unexpectedly quadratic"
    passed(7, "tau_c1 tracks the curve formula at every filling; the "
              "Eisenstein-quadratic filling is exactly the geometric |n| = 1 slope "
              f"(n = {next(iter(rigid_quadratic))}); |n| >= 2 fields are non-quadratic")


def test_criterion_8_property_suites(whitehead, link622, berge, solved):
    # compact standalone re-run of the property suites (the full versions
    # live in the module test files)
    from conftest import rational_point_sampler, take

    # mu homomorphism (canonical monomials)
    for tri in (whitehead, link622, berge):
        for cusp in tri.cusps:
            a, b = cusp.meridian, cusp.longitude
            assert mu(tri, cf.concat_curves(a, b)) == mu(tri, a) * mu(tri, b)

    # tau cocycle at random non-degenerate points
    tri = whitehead
    a, b = tri.cusps[0].meridian, tri.cusps[0].longitude
    ab = cf.concat_curves(a, b)
    for shapes in take(rational_point_sampler(tri.n_tet, seed=88), 20):
        lhs = tau(tri, ab).evaluate(shapes)
        rhs = tau(tri, a).evaluate(shapes) + mu(tri, a).as_sum().evaluate(
            shapes) * tau(tri, b).evaluate(shapes)
        assert abs(lhs - rhs) < mp.mpf(2) ** -180

    # basis covariance of the verdict (l -> l + m)
    import dataclasses
    cusp = berge.cusps[0]
    new_l = cf.concat_curves(cusp.longitude, cusp.meridian)
    cusps = (dataclasses.replace(cusp, longitude=new_l),) + berge.cusps[1:]
    tri_k = dataclasses.replace(berge, cusps=cusps)
    base = isolation_verdict(berge, 0, start=solved["berge"])
    moved = isolation_verdict(tri_k, 0, start=solved["berge"])
    assert moved.verdict == base.verdict and moved.order == base.order

    # precision-doubling stability of rigid flags
    options = ScreenOptions(precision_bits=PRECISION, seed=0)
    hi = ScreenOptions(precision_bits=2 * PRECISION, seed=0)
    rep_lo = screen_triangulation(berge, "berge", options, run_isolation=False,
                                  solved=solved["berge"])
    rep_hi = screen_triangulation(berge, "berge", hi, run_isolation=False)
    for lo_rec, hi_rec in zip(rep_lo.cusps, rep_hi.cusps):
        if lo_rec.rigid:
            assert hi_rec.rigid

    # report determinism
    r1 = screen_triangulation(whitehead, "whitehead", options)
    r2 = screen_triangulation(whitehead, "whitehead", options)
    assert r1.to_json() == r2.to_json()

    passed(8, "homomorphism, cocycle, basis covariance, precision doubling, "
              "determinism all green with the fixed seed")
