"""Trace-based cusp parameter evaluation.

Oracles: the normal-form matrix model (upper/lower triangular peripheral
matrices) where the formula's value is the visible translation ratio, and
direct matrix arithmetic for the five traces.
"""

import random

import pytest
from mpmath import mp

from cuspforge.tracecalc import (
    MatrixRep,
    TraceError,
    TraceTuple,
    cusp_parameter_from_traces,
    traces_from_matrices,
    whitehead_curve_residual,
    whitehead_cusp_parameter,
    whitehead_theta,
    whitehead_trace_tuple,
)


def random_x(rng):
    while True:
        x = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(x), abs(x - 1), abs(x + 1)) > 0.05:
            return x


def test_curve_formula():
    # along the one-parameter curve, C collapses to I_ab^2 + 1
    rng = random.Random(2)
    for _ in range(20):
        t = mp.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(t) < 0.1:
            continue
        C = cusp_parameter_from_traces(whitehead_trace_tuple(t))
        assert abs(C - (t * t + 1)) < mp.mpf("1e-30")


def test_denominator_guard():
    bad = TraceTuple(I_mu=2, I_mu_prime=2, I_lambda=-2,
                     I_lambda_mu_prime=5, I_mu_mu_prime=2)
    with pytest.raises(TraceError, match="commute"):
        cusp_parameter_from_traces(bad)


def test_theta_image_on_curve():
    rng = random.Random(3)
    for _ in range(20):
        x = random_x(rng)
        I_a, I_b, I_ab = whitehead_theta(x)
        assert I_a == 2
        assert whitehead_curve_residual(I_b, I_ab) < mp.mpf("1e-30")


def test_theta_at_complete_point():
    _, _, I_ab = whitehead_theta(mp.mpc(0, 1))
    assert abs(I_ab ** 2 - mp.mpc(0, 2)) < mp.mpf("1e-40")


def test_theta_real_input_gives_real_traces():
    _, I_b, I_ab = whitehead_theta(mp.mpf("0.37"))
    assert abs(I_b.imag) < mp.mpf("1e-40") and abs(I_ab.imag) < mp.mpf("1e-40")


def test_branch_independence():
    # flipping the square root flips both root-dependent traces together;
    # C built from the trace tuple is unchanged
    rng = random.Random(4)
    for _ in range(20):
        x = random_x(rng)
        _, I_b, I_ab = whitehead_theta(x)
        c_plus = cusp_parameter_from_traces(whitehead_trace_tuple(I_ab))
        c_minus = cusp_parameter_from_traces(whitehead_trace_tuple(-I_ab))
        assert abs(c_plus - c_minus) < mp.mpf("1e-30")


def test_matrix_normal_form_returns_translation_ratio():
    tau = mp.mpc("1.25", "0.75")
    rep = MatrixRep(((1, 1), (0, 1)), ((1, tau), (0, 1)), ((0, -1), (1, 0)))
    traces = traces_from_matrices(rep)
    assert abs(cusp_parameter_from_traces(traces) - tau) < mp.mpf("1e-40")


def test_matrix_determinant_check():
    rep = MatrixRep(((2, 0), (0, 1)), ((1, 1), (0, 1)), ((0, -1), (1, 0)))
    with pytest.raises(TraceError, match="determinant"):
        traces_from_matrices(rep)


def test_commuting_gamma_hits_guard():
    rep = MatrixRep(((1, 1), (0, 1)), ((1, 2), (0, 1)), ((1, 3), (0, 1)))
    traces = traces_from_matrices(rep)
    with pytest.raises(TraceError):
        cusp_parameter_from_traces(traces)


def test_conjugation_invariance():
    rng = random.Random(6)
    tau = mp.mpc("0.5", "1.5")
    rep = MatrixRep(((1, 1), (0, 1)), ((1, tau), (0, 1)), ((0, -1), (1, 0)))
    base = cusp_parameter_from_traces(traces_from_matrices(rep))
    for _ in range(10):
        a, b, c = (mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        d = (1 + b * c) / a if abs(a) > 0.1 else None
        if d is None:
            continue
        g = mp.matrix([[a, b], [c, d]])
        gi = mp.matrix([[d, -b], [-c, a]])

        def conj(m):
            M = g * mp.matrix([[mp.mpc(m[0][0]), mp.mpc(m[0][1])],
                               [mp.mpc(m[1][0]), mp.mpc(m[1][1])]]) * gi
            return ((M[0, 0], M[0, 1]), (M[1, 0], M[1, 1]))

        moved = MatrixRep(conj(rep.m_mu), conj(rep.m_lambda), conj(rep.m_gamma))
        value = cusp_parameter_from_traces(traces_from_matrices(moved, det_tol=1e-20))
        assert abs(value - base) < mp.mpf("1e-30")


def test_reconciliation_constant_is_integer():
    # the trace-side value minus the shape-side value is the same integer
    # at every sample; its measured value is 3 (one meridian twist away
    # from the printed display, which is a legal basis change)
    rng = random.Random(7)
    diffs = []
    for _ in range(20):
        x = random_x(rng)
        C = whitehead_cusp_parameter(x)
        tau_c1 = 4 * x / (1 - x ** 2) - 2
        diffs.append(C - tau_c1)
    for d in diffs:
        assert abs(d - diffs[0]) < mp.mpf("1e-30")
        assert abs(d - mp.nint(d.real)) < mp.mpf("1e-30")
    assert int(mp.nint(diffs[0].real)) == 3
