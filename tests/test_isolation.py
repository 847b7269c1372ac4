"""Isolation evidence: Jacobian kernels, implicit derivatives, verdicts.

The second-derivative targets have independent oracles: for the
four-regular-tetrahedra fixture the implicit-function-theorem system was
differentiated symbolically (the pinned 3x3 matrix is invertible and the
second derivative of the first shape with respect to the pinned one is
i/sqrt(3)); for the Whitehead fixture the curve is rational in one
variable and the derivatives of 4x/(1-x^2) - 2 are hand-computed.
"""

import json
import subprocess
import sys

import pytest
from mpmath import mp

import cuspforge as cf
from cuspforge import isolation
from cuspforge.blockform import to_mpc
from cuspforge.holonomy import Point, ShapeAssignment, SignedMonomial
from cuspforge.isolation import doubled_structure, isolation_verdict, tau_derivatives
from cuspforge.solver import (
    REGULAR_SHAPE,
    KernelDimensionError,
    PolynomialEquation,
    SolveError,
    SolveResult,
    _gluing_rows,
    _residual,
    completeness_system,
    numerical_kernel,
    solve_complete,
    solve_filled,
    system_jacobian,
    trace_completeness_curve,
)

from conftest import PRECISION


def _kernel(tri, cusp, shapes):
    """(x, kept) of the completeness Jacobian of one cusp at a point, its
    kernel vector x rounded to mpmath."""
    with mp.workprec(shapes.precision_bits + 30):
        rows = system_jacobian(completeness_system(tri, cusp), list(shapes.z))
        x, kept = numerical_kernel(rows, shapes.precision_bits)
        return [to_mpc(v) for v in x], kept


def test_berge_pinned_matrix_and_first_derivatives(berge, solved):
    shapes = solved["berge"].shapes
    info = tau_derivatives(berge, 0, shapes)
    # tie in tangent magnitudes resolves to the lowest index: the second
    # coordinate is the curve parameter
    assert info["pin"] == 1
    dz = info["dz"]
    assert abs(dz[0]) < mp.mpf("1e-30")          # dz1/dz2 = 0
    assert abs(dz[2]) < mp.mpf("1e-30")          # dz3/dz2 = 0
    assert abs(dz[3] - (1 - mp.sqrt(-3)) / 2) < mp.mpf("1e-30")


def test_berge_second_derivative(berge, solved):
    info = tau_derivatives(berge, 0, solved["berge"].shapes)
    assert abs(info["d2z"][0] - mp.mpc(0, 1) / mp.sqrt(3)) < mp.mpf("1e-25")
    # d2_tau = zeta2'(z1) * d2z1 with zeta2'(eta) = 1/eta^2
    eta = (1 + mp.sqrt(-3)) / 2
    expected = (1 / eta ** 2) * (mp.mpc(0, 1) / mp.sqrt(3))
    assert abs(info["d2_tau"] - expected) < mp.mpf("1e-25")
    assert abs(info["d_tau"]) < mp.mpf("1e-30")


def test_berge_verdict_order_two(berge, solved):
    ev = isolation_verdict(berge, 0, start=solved["berge"])
    assert ev.not_isolated and ev.order == 2


def test_berge_second_cusp_order_one(berge, solved):
    ev = isolation_verdict(berge, 1, start=solved["berge"])
    assert ev.not_isolated and ev.order == 1


def test_whitehead_kernel_dimension(whitehead, solved):
    x, kept = _kernel(whitehead, 0, solved["whitehead"].shapes)
    assert len(x) == whitehead.n_tet and 1 in x
    assert len(kept) == whitehead.n_tet - 1


def test_622_kernel_and_tangent(link622, solved):
    t = _kernel(link622, 0, solved["622"].shapes)[0]
    # the curve tangent at the symmetric point swaps the paired shapes
    assert abs(t[0] + t[1]) < mp.mpf("1e-30")
    assert abs(t[2]) < mp.mpf("1e-30") and abs(t[3]) < mp.mpf("1e-30")
    assert abs(t[4] + t[5]) < mp.mpf("1e-30")
    # and is consistent with the gradient of the curve polynomial
    z1, z1p = solved["622"].shapes.z[0], solved["622"].shapes.z[1]
    dp1 = (z1p ** 3 + 2 * z1p ** 2 * z1 + 3 * z1p * z1 ** 2
           - 3 * z1p - 2 * z1 + 2)
    dp2 = (3 * z1p ** 2 * z1 + 2 * z1p * z1 ** 2 + z1 ** 3
           - 2 * z1p - 3 * z1 + 2)
    assert abs(dp1 * t[0] + dp2 * t[1]) < mp.mpf("1e-30")


def test_whitehead_derivatives_and_verdict(whitehead, solved):
    info = tau_derivatives(whitehead, 0, solved["whitehead"].shapes)
    # tangent entries all have modulus 1 here; ties resolve to index 0
    assert info["pin"] == 0
    # first derivative of 4x/(1-x^2) - 2 vanishes at x = i, and the
    # second derivative (24x + 8x^3)/(1-x^2)^3 * (dx/dw)^2 equals 2i
    assert abs(info["d_tau"]) < mp.mpf("1e-30")
    assert abs(info["d2_tau"] - mp.mpc(0, 2)) < mp.mpf("1e-30")
    ev = isolation_verdict(whitehead, 0, start=solved["whitehead"])
    assert ev.not_isolated and ev.order == 2


def test_622_verdict(link622, solved):
    ev = isolation_verdict(link622, 0, start=solved["622"])
    assert ev.not_isolated and ev.order == 2
    assert abs(ev.d_tau) < mp.mpf("1e-25")


def test_derivative_continuation_consistency(whitehead, solved):
    # the second cusp has first-order variation; the traced spread at small
    # steps must match |grad tau . unit tangent| * h within a factor of 2
    info = tau_derivatives(whitehead, 1, solved["whitehead"].shapes)
    dz_norm = mp.sqrt(sum(abs(v) ** 2 for v in info["dz"]))
    d_unit = abs(info["d_tau"]) / dz_norm
    assert d_unit > mp.mpf("1e-6")
    for h in (mp.mpf("1e-3"), mp.mpf("1e-4")):
        samples = trace_completeness_curve(
            whitehead, 1, n_points=1, step=h,
            precision_bits=PRECISION, start=solved["whitehead"])
        spread = abs(samples[1][1] - samples[0][1])
        assert d_unit * h / 2 < spread < d_unit * h * 2


@pytest.mark.parametrize("cusp", [0, 1], ids=["c1", "c2"])
def test_fills_of_the_other_cusp_follow_the_isolation_taylor_series(whitehead, solved, cusp):
    # a (1, n) filling of the other cusp keeps this one complete, so it lies
    # on the curve the isolation test differentiates along: with s the pinned
    # coordinate's offset from the complete structure, tau = tau_0 +
    # d_tau s + d2_tau s^2 / 2 + O(s^3).  Halving s (n = 20 -> 40) divides
    # the error by about 8; a wrong d2_tau leaves an O(s^2) error, divided
    # by about 4
    complete = solved["whitehead"]
    pair = cf.cusp_parameter(whitehead, whitehead.cusps[cusp])
    info = tau_derivatives(whitehead, cusp, complete.shapes)
    tau0 = cf.evaluate_cusp_parameter(pair, complete.shapes)
    pin = info["pin"]
    for sign in (1, -1):
        errors = []
        for n in (20, 40):
            fillings = ["complete", "complete"]
            fillings[1 - cusp] = (1, sign * n)
            filled = solve_filled(whitehead, fillings, PRECISION)
            s = filled.shapes.z[pin] - complete.shapes.z[pin]
            assert mp.mpf("0.02") < abs(s) < mp.mpf("0.1")
            tau = cf.evaluate_cusp_parameter(pair, filled.shapes)
            errors.append(abs(tau - (tau0 + info["d_tau"] * s + info["d2_tau"] * s ** 2 / 2)))
        assert errors[0] >= 6 * errors[1], (sign, errors)


def test_isolate_gives_each_cusp_one_outcome_at_every_precision():
    # the `isolate` command's path (complete solve, one doubled structure,
    # a verdict per cusp) at 128, 256 and 512 bits: every cusp of every
    # fixture keeps its verdict, order and pin
    outcomes = []
    for bits in (128, 256, 512):
        outcome = []
        for name in ("whitehead", "622", "berge"):
            tri = cf.load_fixture(name)
            start = solve_complete(tri, bits)
            doubled = doubled_structure(tri, start)
            for cusp in range(len(tri.cusps)):
                ev = isolation_verdict(tri, cusp, start=start, doubled=doubled)
                outcome.append((name, ev.cusp, ev.verdict, ev.order, ev.pin_index))
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert all(outcome[2] == "NotIsolated" for outcome in outcomes[0])


def test_basis_covariance_of_verdict(whitehead, link622, solved):
    # replacing the longitude l by l + k m (k = +-1) shifts the cusp
    # parameter by the constant k on the completeness curve and leaves the
    # verdict and its order unchanged
    import dataclasses

    for tri_name, tri in (("whitehead", whitehead), ("622", link622)):
        base = isolation_verdict(tri, 0, start=solved[tri_name])
        cusp = tri.cusps[0]
        for k in (1, -1):
            m_k = cusp.meridian if k == 1 else cf.invert_curve(cusp.meridian, tri.n_tet)
            new_l = cf.concat_curves(cusp.longitude, m_k)
            new_cusp = dataclasses.replace(cusp, longitude=new_l)
            cusps = list(tri.cusps)
            cusps[0] = new_cusp
            tri_k = dataclasses.replace(tri, cusps=tuple(cusps))
            ev = isolation_verdict(tri_k, 0, start=solved[tri_name])
            assert ev.verdict == base.verdict and ev.order == base.order
            # the shift is additive, so the derivative evidence agrees
            assert abs(ev.d_tau - base.d_tau) < mp.mpf("1e-25")
            assert abs(ev.d2_tau - base.d2_tau) < mp.mpf("1e-25")


def test_evidence_serialization(berge, solved):
    ev = isolation_verdict(berge, 0, start=solved["berge"])
    blob = ev.to_jsonable()
    assert blob["verdict"] == "NotIsolated" and blob["order"] == 2
    assert isinstance(blob["d2_tau"]["re"], str)


def test_isolation_takes_its_precision_from_start(berge, monkeypatch):
    # a 128-bit start is tested at 128 bits and certified by a 256-bit
    # polish, with no precision given anywhere else
    with mp.workprec(128 + 30):
        start = solve_complete(berge, 128, seed=0)
    polished = []

    def counted(tri, precision_bits, *args, **kwargs):
        polished.append(precision_bits)
        return solve_complete(tri, precision_bits, *args, **kwargs)

    monkeypatch.setattr(isolation, "solve_complete", counted)
    with mp.workprec(128 + 30):
        orders = [isolation_verdict(berge, cusp, start=start).order for cusp in range(2)]
    assert [c.name for c in berge.cusps] == ["c", "c-knotted"]
    assert orders == [2, 1]
    assert polished == [256, 256]


def test_a_given_doubled_structure_certifies_as_the_helper_does(whitehead, solved):
    # one doubled_structure serves both cusps with the evidence each
    # verdict finds when it polishes its own; one at another precision is
    # refused
    start = solved["whitehead"]
    doubled = doubled_structure(whitehead, start)
    assert doubled.shapes.precision_bits == 2 * PRECISION and doubled.restarts_used == 0
    for cusp in range(2):
        given = isolation_verdict(whitehead, cusp, start=start, doubled=doubled)
        own = isolation_verdict(whitehead, cusp, start=start)
        assert given == own
    with pytest.raises(ValueError, match=f"doubled solved at {PRECISION} bits"):
        isolation_verdict(whitehead, 0, start=start, doubled=start)


@pytest.mark.parametrize("name", ["whitehead", "622", "berge"])
def test_tangent_is_the_phase_fixed_kernel_vector(name, solved):
    # the normalised pinned velocity is the kernel vector scaled to unit
    # norm with its pinned entry real and positive, at p and 2p bits
    tri = cf.load_fixture(name)
    low = solved[name]
    high = solve_complete(tri, 2 * PRECISION, initial=low.shapes)
    for start in (low, high):
        p = start.shapes.precision_bits
        for cusp in range(len(tri.cusps)):
            info = tau_derivatives(tri, cusp, start.shapes)
            pin, tangent = info["pin"], info["tangent"]
            vec = _kernel(tri, cusp, start.shapes)[0]
            with mp.workprec(p + 30):
                norm = mp.sqrt(sum(abs(c) ** 2 for c in vec))
                scale = mp.conj(vec[pin]) / (abs(vec[pin]) * norm)
                error = max(abs(t - c * scale) for t, c in zip(tangent, vec))
                assert error < mp.mpf(2) ** (10 - p)


def test_continuation_fallback(monkeypatch, berge, solved):
    # with tol = 1 neither derivative counts, so the verdict rests on the
    # spread traced at p, certified by the trace at 2p
    import cuspforge.isolation as isolation
    from cuspforge.screen import (UNDETERMINED, CuspRecord, ScreenReport, reports_to_csv,
                                  reports_to_table)

    trace = isolation.trace_completeness_curve
    traced = []

    def recorded(*args, **kwargs):
        samples = trace(*args, **kwargs)
        spread = max(abs(t - samples[0][1]) for _, t in samples[1:])
        traced.append((kwargs["precision_bits"], spread))
        return samples

    monkeypatch.setattr(isolation, "trace_completeness_curve", recorded)
    monkeypatch.setattr(isolation, "TOL_DIGITS", 0)
    monkeypatch.setattr(isolation, "CONTINUATION_STEP", 0.3)
    monkeypatch.setattr(isolation, "CONTINUATION_POINTS", 16)
    ev = isolation_verdict(berge, 0, start=solved["berge"])
    assert ev.verdict == "NotIsolated" and ev.order is None and not ev.notes
    assert abs(ev.continuation_spread - mp.mpf("1.0834504598547")) < mp.mpf("1e-12")
    assert [bits for bits, _ in traced] == [PRECISION, 2 * PRECISION]
    assert abs(traced[0][1] - traced[1][1]) < mp.mpf(2) ** (-PRECISION // 2)
    # the CSV summary and the table print one label
    report = ScreenReport(manifold="berge", source="", verdict=UNDETERMINED,
                          cusps=[CuspRecord(name=ev.cusp, isolation=ev)])
    for text in (reports_to_csv([report]), reports_to_table([report])):
        assert "NotIsolated(continuation)" in text

    # small steps: the spread stays below tol and nothing is claimed
    monkeypatch.setattr(isolation, "CONTINUATION_STEP", 1e-3)
    monkeypatch.setattr(isolation, "CONTINUATION_POINTS", 8)
    ev = isolation_verdict(berge, 0, start=solved["berge"])
    assert ev.verdict == "Inconclusive" and ev.order is None and ev.label == "Inconclusive"
    assert ev.continuation_spread < 1
    assert "constancy is NOT certified" in ev.notes[-1]


@pytest.mark.parametrize("name, cusp", [("whitehead", 0), ("622", 1), ("berge", 1)])
def test_trace_and_derivatives_share_the_kernel_check(name, cusp):
    # at 8 bits the elimination cannot decide the rank cleanly: tracing and
    # the derivatives refuse the point with one error and one message
    tri = cf.load_fixture(name)
    start = solve_complete(tri, 8)
    with pytest.raises(KernelDimensionError, match="kernel dimension") as derivatives:
        tau_derivatives(tri, cusp, start.shapes)
    with pytest.raises(KernelDimensionError) as trace:
        trace_completeness_curve(tri, cusp, n_points=1, precision_bits=8, start=start)
    assert str(trace.value) == str(derivatives.value)


def _rank_zero_file(tmp_path):
    """A one-tetrahedron, two-cusped file whose every equation is the
    constant 1: one edge with corners E0, E0, E1, E1, E2, E2 of tet 0, and
    curves of one vertex with word [E0, E1, E2], so every Jacobian is 0."""
    def corners(*kinds):
        return [{"tet": 0, "kind": k} for k in kinds]

    def curve(*w0):
        return {"w0_word": corners(*w0), "vertices": [{"word": corners("E0", "E1", "E2")}]}

    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({
        "name": "rank0", "n_tet": 1,
        "edges": [{"label": "e", "corners": corners("E0", "E0", "E1", "E1", "E2", "E2")}],
        "cusps": [{"name": "a", "meridian": curve(), "longitude": curve("E2")},
                  {"name": "b", "meridian": curve(), "longitude": curve("E1", "E2")}]}))
    return path


def _regular_start() -> SolveResult:
    """A successful one-shape solve at the regular shape, built by hand:
    `solve_complete` refuses the rank-0 file's roots."""
    shapes = ShapeAssignment.from_values([REGULAR_SHAPE], PRECISION)
    return SolveResult(shapes=shapes, residual=mp.mpf(0), geometric=True, iterations=0,
                       success=True, seed=0)


def test_a_rank_zero_curve_is_refused_by_the_kernel_check(tmp_path):
    # a one-dimensional kernel with no pivot leaves no rows to keep
    tri = cf.read_triangulation(_rank_zero_file(tmp_path))
    start = _regular_start()
    with pytest.raises(KernelDimensionError, match="rank 0") as derivatives:
        tau_derivatives(tri, 0, start.shapes)
    with pytest.raises(KernelDimensionError) as trace:
        trace_completeness_curve(tri, 0, n_points=1, start=start)
    assert str(trace.value) == str(derivatives.value)


def test_constant_rows_keep_their_residual_and_zero_gradient(tmp_path):
    # every row of the rank-0 file is M = 1, whose cleared sum is 0, and
    # M = -1 clears to the constant -2: neither has two terms.  Their
    # residuals are 0 and 2 and their gradients 0, at an mpmath point (as
    # the solvers take them too) and on Python complex
    tri = cf.read_triangulation(_rank_zero_file(tmp_path))
    rows = _gluing_rows(tri, [None] * len(tri.cusps))
    assert len(rows) == 5 and all(e.monomial.is_one() for e in rows)
    minus_one = PolynomialEquation(-SignedMonomial.one(1))
    with mp.workprec(PRECISION + 30):
        for z in (Point([mp.mpc(REGULAR_SHAPE)]), Point([complex(REGULAR_SHAPE)])):
            for e, residual in [(e, 0) for e in rows] + [(minus_one, 2)]:
                assert e.residual(z) == residual and e.value(z) == -residual
                assert e.gradient(z) == [0]
                if z.blocks:
                    assert e.row(z) == [(0, 0, 0)] and to_mpc(e.rhs(z)) == residual
            assert _residual(rows, z) == 0 and _residual(rows + [minus_one], z) == 2


def test_a_rank_deficient_root_is_not_a_complete_solve(tmp_path):
    # every start of the rank-0 file is a root that no Newton step moves;
    # its Jacobian is 0, so the solve refuses each one
    path = _rank_zero_file(tmp_path)
    with pytest.raises(SolveError, match="33 starts were refused as rank-deficient roots"):
        solve_complete(cf.read_triangulation(path), PRECISION)
    for command in ("isolate", "screen"):
        proc = subprocess.run([sys.executable, "-m", "cuspforge.screen", command, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "rank-deficient roots" in proc.stdout
        assert "FailsRigidField" not in proc.stdout
