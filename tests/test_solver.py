"""Complete and filled solves, residual certificates, curve tracing.

Expected complete structures are checked against independently known
points: (i, i, i, i) satisfies the gluing and completeness equations for
the four-tetrahedron link complement directly; the six-tetrahedron fixture
has its symmetric point with first coordinate a root of 3z^2 - 3z + 1; the
four-regular-tetrahedra fixture sits at the fixed point of the corner
parameter maps.
"""

import dataclasses
import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from mpmath import mp

import cuspforge as cf
from cuspforge import blockform
from cuspforge.holonomy import (Point, ShapeAssignment, cusp_parameter, evaluate_cusp_parameter,
                                mu, sum_value, term_value)
from cuspforge.solver import (
    KernelDimensionError,
    PolynomialEquation,
    SolveError,
    _float_search,
    _gluing_rows,
    _lu_factor,
    _lu_solve,
    completeness_system,
    curve_pin,
    curve_velocity,
    doubled_structure,
    least_squares,
    numerical_kernel,
    pinned_factor,
    solve_complete,
    solve_filled,
    system_jacobian,
    trace_completeness_curve,
)

from conftest import (PRECISION, clear_memos, count_mpmath_arithmetic, rational_point_sampler,
                      take)

TIGHT = mp.mpf("1e-40")


def test_whitehead_complete_point(solved):
    result = solved["whitehead"]
    assert result.success and result.geometric
    assert result.residual < TIGHT
    for z in result.shapes.z:
        assert abs(z - mp.mpc(0, 1)) < TIGHT


def test_berge_complete_point(solved):
    result = solved["berge"]
    eta = (1 + mp.sqrt(-3)) / 2
    assert result.success and result.geometric
    for z in result.shapes.z:
        assert abs(z - eta) < TIGHT


def test_622_complete_point(solved):
    result = solved["622"]
    assert result.success and result.geometric
    z1 = (3 + mp.sqrt(-3)) / 6
    assert abs(result.shapes.z[0] - z1) < mp.mpf("1e-35")
    assert abs(result.shapes.z[1] - z1) < mp.mpf("1e-35")
    # the univariate oracle: z1 is a root of 3 z^2 - 3 z + 1, itself a
    # factor of the symmetric specialization 3 z^4 - 5 z^2 + 4 z - 1
    z = result.shapes.z[0]
    assert abs(3 * z ** 2 - 3 * z + 1) < TIGHT
    assert abs(3 * z ** 4 - 5 * z ** 2 + 4 * z - 1) < TIGHT


def test_622_complete_point_on_curve_polynomial(solved):
    z1, z1p = solved["622"].shapes.z[0], solved["622"].shapes.z[1]
    p = (z1p ** 3 * z1 + z1p ** 2 * z1 ** 2 + z1p * z1 ** 3
         - z1p ** 2 - 3 * z1p * z1 - z1 ** 2 + 2 * z1p + 2 * z1 - 1)
    assert abs(p) < TIGHT


def test_residual_certificate(solved):
    # residuals are recomputed at doubled precision inside the solver;
    # verify independently here at 2x precision
    for name, result in solved.items():
        tri = cf.load_fixture(name)
        shapes = ShapeAssignment(result.shapes.z, 2 * PRECISION)
        worst = mp.mpf(0)
        for i in range(len(tri.edges)):
            worst = max(worst, abs(tri.edge_equation(i).evaluate(shapes) - 1))
        for cusp in tri.cusps:
            for curve in (cusp.meridian, cusp.longitude):
                worst = max(worst, abs(cf.mu(tri, curve).evaluate(shapes) - 1))
        assert worst < mp.mpf(2) ** (-PRECISION // 2)


def test_solve_filled_all_complete_is_bitwise_identical(whitehead, solved):
    # with no cusp filled, solve_filled is solve_complete with the same arguments
    a = solved["whitehead"]
    b = solve_filled(whitehead, ["complete", "complete"], PRECISION, seed=0)
    assert a.shapes == b.shapes and a.residual == b.residual
    assert (a.iterations, a.restarts_used, a.seed, a.geometric, a.success, a.notes) == (
        b.iterations, b.restarts_used, b.seed, b.geometric, b.success, b.notes)


@pytest.mark.parametrize("seed", range(4))
def test_622_cold_start_every_seed(link622, seed):
    result = solve_complete(link622, PRECISION, seed=seed)
    assert result.success and result.geometric


def test_cold_start_accepts_the_regular_shape(solved):
    # the float search converges to the geometric root from the first start
    assert solved["whitehead"].restarts_used == 0
    assert solved["berge"].restarts_used == 0


def test_solve_imports_no_numpy_or_scipy():
    # numpy plus scipy would add ~40 MB to the resident size of every run
    src = str(pathlib.Path(cf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import cuspforge.screen\n"
        "from cuspforge import load_fixture\n"
        "from cuspforge.solver import solve_complete\n"
        "assert solve_complete(load_fixture('622'), 256).success\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("filling", [(1.5, 2), (True, 2), (1, 2, 7), ("1", "2"), (2, 4)],
                         ids=["float", "bool", "three-entries", "strings", "not-coprime"])
def test_solve_filled_rejects_malformed_filling(whitehead, filling):
    # only 'complete', None or a coprime pair of ints fills a cusp: a float
    # or a bool is not truncated, and a third entry is not dropped
    with pytest.raises(ValueError, match="coprime pair of ints"):
        solve_filled(whitehead, [None, filling], PRECISION)


def test_solve_filled_refuses_a_failed_start(whitehead, monkeypatch):
    # a start search that finds no float root raises; the tracer counts the
    # whole schedule by "did not converge".  A copy of whitehead has no
    # start search kept yet (`solver.invariants`), and keeps this one
    import cuspforge.solver as solver

    monkeypatch.setattr(solver, "_float_search", lambda rows, z: None)
    with pytest.raises(SolveError, match=r"start search did not converge within 32 restarts"):
        solve_filled(dataclasses.replace(whitehead), [None, (1, 3)], PRECISION)


def _mirror_float_roots(monkeypatch, every: bool) -> list:
    """Patch the start search to conjugate its first float root, or every
    one; returns the list of the starts it is then asked to search."""
    import cuspforge.solver as solver

    calls = []

    def mirrored(rows, z):
        calls.append(z)
        root = _float_search(rows, z)
        return [v.conjugate() for v in root] if every or len(calls) == 1 else root

    monkeypatch.setattr(solver, "_float_search", mirrored)
    return calls


def test_solve_filled_ramps_from_the_first_geometric_root(whitehead, monkeypatch):
    # the start search passes over a float root with some Im z <= 0 for the
    # next one with every Im z > 0; with no such root it takes the first
    # root and notes it
    # (on copies of whitehead, which keep the patched searches' starts)
    calls = _mirror_float_roots(monkeypatch, every=False)
    result = solve_filled(dataclasses.replace(whitehead), [None, (1, 3)], PRECISION)
    assert len(calls) == 2 and result.restarts_used == 1
    assert result.geometric and not result.notes
    calls = _mirror_float_roots(monkeypatch, every=True)
    result = solve_filled(dataclasses.replace(whitehead), [None, (1, 3)], PRECISION, restarts=2)
    assert len(calls) == 3 and result.restarts_used == 0 and not result.geometric
    assert result.notes[0] == "complete solution is non-geometric (some Im z <= 0)"


def test_solve_complete_polishes_a_non_geometric_root_last(whitehead, monkeypatch):
    # the complete solve takes its starts in the order of the filled one:
    # a float root with some Im z <= 0 waits for the next start, and is
    # polished only after the whole schedule finds no other
    calls = _mirror_float_roots(monkeypatch, every=False)
    result = solve_complete(whitehead, PRECISION)
    assert len(calls) == 2 and result.restarts_used == 1
    assert result.geometric and not result.notes
    calls = _mirror_float_roots(monkeypatch, every=True)
    result = solve_complete(whitehead, PRECISION, restarts=2)
    assert len(calls) == 3 and result.restarts_used == 0 and not result.geometric
    assert result.notes == ("complete solution is non-geometric (some Im z <= 0)",)


def test_the_doubled_polish_of_a_complete_solve_runs_no_start_search(whitehead, solved,
                                                                     monkeypatch):
    # the 2p polish starts from the p-bit shapes, and the start search is
    # asked for no further start once that polish is accepted
    import cuspforge.solver as solver

    def refused(rows, z):
        raise AssertionError("start search run")

    monkeypatch.setattr(solver, "_float_search", refused)
    doubled = doubled_structure(whitehead, solved["whitehead"])
    assert doubled.success and doubled.restarts_used == 0
    assert doubled.shapes.precision_bits == 2 * PRECISION


def test_whitehead_meridian_filling_degenerates(whitehead):
    # (1, 0) on the second cusp trivially re-closes the solid torus; the
    # solver must not present this as a geometric hyperbolic structure
    try:
        result = solve_filled(whitehead, ["complete", (1, 0)], PRECISION)
    except SolveError:
        return
    assert result.degenerate or not result.geometric


def test_whitehead_longitude_filling_flagged(whitehead):
    # (0, 1) is an exceptional slope: expect an explicit failure or a
    # degenerate/non-geometric report, never a silent geometric result
    try:
        result = solve_filled(whitehead, ["complete", (0, 1)], PRECISION)
    except SolveError:
        return
    assert result.degenerate or not result.geometric


def test_whitehead_one_one_filling_field(whitehead):
    # among the (1, +-1) fillings exactly one is hyperbolic with an
    # Eisenstein-quadratic cusp parameter; the other collapses to a flat
    # real solution on the trefoil slope
    from cuspforge.numberlab import EISENSTEIN, classify_field, algdep

    pair = cusp_parameter(whitehead, whitehead.cusps[0])
    kinds = {}
    for n in (1, -1):
        filling = ["complete", (1, n)]
        result = solve_filled(whitehead, filling, PRECISION)
        doubled = doubled_structure(whitehead, result)
        with mp.workprec(2 * PRECISION + 30):
            value = evaluate_cusp_parameter(pair, doubled.shapes)
        fc = classify_field(algdep(value, 8, PRECISION))
        kinds[n] = (result.geometric, fc.kind)
    geo = [n for n in (1, -1) if kinds[n][0]]
    assert len(geo) == 1
    assert kinds[geo[0]][1] == EISENSTEIN
    other = -geo[0]
    assert not kinds[other][0]


def test_whitehead_filling_matches_curve_formula(whitehead):
    # filled solutions keep the first cusp complete, so they lie on the
    # curve where tau_c1 = 4x/(1-x^2) - 2 with x the second shape
    pair = cusp_parameter(whitehead, whitehead.cusps[0])
    for n in (2, -3):
        result = solve_filled(whitehead, ["complete", (1, n)], PRECISION)
        assert result.success and result.geometric
        x = result.shapes.z[1]
        tau = evaluate_cusp_parameter(pair, result.shapes)
        assert abs(tau - (4 * x / (1 - x ** 2) - 2)) < mp.mpf("1e-30")


# whitehead (1, n) on the second cusp at 256 bits, as the working-precision
# ramp solved them: n -> (branch offsets, degenerate, z_1).  The meridian
# filling n = 0 ends two turns from the principal branch, which only a
# continuous ramp reaches.
WHITEHEAD_FILLINGS = {
    0: ((1, 2), True, mp.mpc(0, -1)),
    -5: ((0, 0), False, mp.mpc("-0.3295424964168808", "0.9630061279893712")),
    -4: ((0, 0), False, mp.mpc("-0.4165815257870610", "0.9409344663150638")),
    -3: ((0, 0), False, mp.mpc("-0.5656001655254563", "0.8914919570121677")),
    -2: ((0, -1), False, mp.mpc("-0.8774388331233463", "0.7448617666197442")),
    -1: ((0, -1), True, mp.mpc("-1.6180339887498948", "0")),
    1: ((0, 1), False, mp.mpc("1.1924404009978555", "0.5478774459741118")),
    2: ((0, 0), False, mp.mpc("0.6882766160119961", "0.8402637937164748")),
    3: ((0, 0), False, mp.mpc("0.4798478166362351", "0.9217161485326908")),
    4: ((0, 0), False, mp.mpc("0.3680037897594579", "0.9538811586813786")),
    5: ((0, 0), False, mp.mpc("0.2983417116468288", "0.9696740889888335")),
}


@pytest.mark.parametrize("n", sorted(WHITEHEAD_FILLINGS))
def test_whitehead_filling_table(whitehead, n):
    # the machine-precision ramp plus one polish lands on the same branch
    # and the same structure; for n != 0 the working-precision ramp took
    # 33-41 steps
    offsets, degenerate, z1 = WHITEHEAD_FILLINGS[n]
    result = solve_filled(whitehead, ["complete", (1, n)], PRECISION)
    assert result.success
    assert result.branch_offsets == (offsets,)
    assert result.degenerate == degenerate
    assert result.geometric == (not degenerate)
    assert abs(result.shapes.z[1] - z1) < mp.mpf("1e-15")
    assert result.iterations <= 8


def test_berge_longitude_filling_passes_through_flat_shapes(berge):
    # the ramp of berge cusp 0 (0, 1) runs through shapes near 0 and 1
    # around t = 0.5; the cleared equations carry it through, where edge
    # rows in log form stall
    result = solve_filled(berge, [(0, 1), "complete"], PRECISION)
    assert result.success
    assert result.degenerate and not result.geometric


def test_filled_polish_failure_raises(whitehead, monkeypatch):
    # a polish that misses the residual target is an error naming the
    # filling, never a result with success=False
    import cuspforge.solver as solver

    newton = solver._newton

    def no_filled_polish(rows, z, *args):
        # the ramp runs on Python complex, the polish on mpmath
        return newton(rows, z, *args, max_iter=80 if isinstance(z[0], complex) else 0)

    monkeypatch.setattr(solver, "_newton", no_filled_polish)
    with pytest.raises(SolveError, match=r"fill:c2=\(1,3\)"):
        solve_filled(whitehead, ["complete", (1, 3)], PRECISION)


# the Newton iterations of a p-bit polish, from a float root (complete) or
# from the ramp's end (filled): each step about doubles the correct bits
POLISH_ITERATIONS = {128: 2, 256: 3, 512: 4}


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_newton_iteration_counts_are_pinned(bits):
    # the complete solves of every fixture, whitehead's cusp-1 (1, n)
    # fillings and the fillings that reach tol with the least margin
    # (622's (1, 5) on both cusps, berge's c0 (1, -2)) take
    # POLISH_ITERATIONS, and each 2p polish of them takes one step
    fills = [("whitehead", 1, n) for n in range(-5, 6) if n]
    fills += [("622", 0, 5), ("622", 1, 5), ("berge", 0, -2)]
    starts = {}
    with mp.workprec(bits + 30):
        for name in ("whitehead", "622", "berge"):
            tri = cf.load_fixture(name)
            start = solve_complete(tri, bits, seed=0)
            starts[name] = tri, start
            assert (start.iterations, start.restarts_used) == (POLISH_ITERATIONS[bits], 0), name
            assert doubled_structure(tri, start).iterations == 1, name
        for name, cusp, n in fills:
            tri, start = starts[name]
            filling = [None] * len(tri.cusps)
            filling[cusp] = (1, n)
            filled = solve_filled(tri, filling, bits)
            assert filled.iterations == POLISH_ITERATIONS[bits], (name, cusp, n)
            assert doubled_structure(tri, filled).iterations == 1, (name, cusp, n)


def _ramp_from_the_polished_structure(tri, filling, bits) -> dict:
    """The oracle of a filled solve: the ramp from the polished complete
    structure rounded to Python complex, then one polish at `bits`, with
    the filled solver's geometric and degenerate flags."""
    from cuspforge.solver import (FillingEquation, _check_fillings, _core_curve, _filling_ramp,
                                  _polish)

    complete = solve_complete(tri, bits, seed=0)
    with mp.workprec(bits + 30):
        rows = _gluing_rows(tri, _check_fillings(tri, filling), bits)
        fill_eqs = [e for e in rows if isinstance(e, FillingEquation)]
        z_ramp = _filling_ramp(tri.name, rows, [complex(v) for v in complete.shapes.z])
        z, iterations, _ = _polish(tri, rows, [mp.mpc(v) for v in z_ramp], bits)
        flat = mp.mpf(2) ** (-bits // 8)
        cores = []
        for fe in fill_eqs:
            (r, s), (u, v) = _core_curve(fe.p, fe.q), fe.logs(z)
            cores.append(r * u + s * v)
        degenerate = (any(abs(c.real) < flat for c in cores)
                      or ShapeAssignment(tuple(z), bits).is_degenerate()
                      or all(abs(v.imag) < flat for v in z))
        return {"z": list(z), "iterations": iterations, "degenerate": degenerate,
                "branch_offsets": tuple(fe.branch_offsets(z) for fe in fill_eqs),
                "geometric": all(v.imag > flat for v in z)}


ORACLE_FILLS = ([("whitehead", cusp, n) for cusp in (0, 1) for n in range(-5, 6)]
                + [("622", cusp, n) for cusp in (0, 1) for n in (1, -1, 5)]
                + [("berge", 0, -2)])


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_filling_from_the_float_root_matches_the_polished_start(bits):
    # solve_filled ramps from its start search's float root; the structure
    # it lands on is the one a ramp from the polished complete structure
    # reaches, to 2^-(p-10), with the same polish, branches and flags
    tol = mp.mpf(2) ** -(bits - 10)
    for name, cusp, n in ORACLE_FILLS:
        tri = cf.load_fixture(name)
        filling = [None] * len(tri.cusps)
        filling[cusp] = (1, n)
        oracle = _ramp_from_the_polished_structure(tri, filling, bits)
        filled = solve_filled(tri, filling, bits)
        case = name, cusp, n
        assert filled.success, case
        assert all(abs(a - b) < tol for a, b in zip(filled.shapes.z, oracle["z"])), case
        assert (filled.iterations, filled.branch_offsets, filled.geometric, filled.degenerate) \
            == (oracle["iterations"], oracle["branch_offsets"], oracle["geometric"],
                oracle["degenerate"]), case


# fillings whose dilations are real, so each principal log lies on -pi or
# +pi by the sign of round-off: their offsets under the tie rule, the same
# at every precision (before it, each came out as another pair at 128, 256
# or 512 bits)
TIED_OFFSETS = {("622", 0, -1): (-1, -2), ("622", 1, -1): (-1, -2),
                ("berge", 0, -2): (0, -1), ("berge", 0, 1): (0, 0)}


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_tied_branch_offsets_do_not_follow_round_off(bits):
    for (name, cusp, n), offsets in TIED_OFFSETS.items():
        tri = cf.load_fixture(name)
        filling = [None] * len(tri.cusps)
        filling[cusp] = (1, n)
        filled = solve_filled(tri, filling, bits)
        assert filled.branch_offsets == (offsets,), (name, cusp, n)
        # the 2p polish reads its references by the same window
        assert doubled_structure(tri, filled).branch_offsets == (offsets,)


@pytest.mark.parametrize("bits", [128, 256])
def test_the_doubled_filled_polish_reads_branch_offsets(bits):
    # the 2p polish takes its references from `branch_offsets`: the p
    # solve's offsets give a one-step polish, and (0, 0) in their place
    # gives a target it cannot reach
    for name, cusp, n in [("622", 0, -1), ("622", 1, -1), ("berge", 0, -2)]:
        tri = cf.load_fixture(name)
        filling = [None] * len(tri.cusps)
        filling[cusp] = (1, n)
        filled = solve_filled(tri, filling, bits)
        assert filled.branch_offsets == (TIED_OFFSETS[name, cusp, n],)
        assert doubled_structure(tri, filled).iterations == 1, (name, cusp, n)
        with pytest.raises(SolveError):
            doubled_structure(tri, dataclasses.replace(filled, branch_offsets=((0, 0),)))


def test_float_evaluator_matches_mpmath(whitehead, link622, berge, solved):
    # the filling ramp evaluates the same cleared equations on Python complex
    for tri in (whitehead, link622, berge):
        eqs = _gluing_rows(tri, [None] * len(tri.cusps))
        cleared = [e.cleared for e in eqs]
        sums = cleared + [s.derivative(i) for s in cleared for i in range(tri.n_tet)]
        points = [solved[tri.name].shapes] + take(rational_point_sampler(tri.n_tet, seed=5), 3)
        for shapes in points:
            z = list(shapes.z)
            zf = [complex(v) for v in z]
            for s in sums:
                size = sum(abs(term_value(c, a, b, z)) for (a, b), c in s.terms.items())
                value = sum_value(s.terms, zf)
                assert isinstance(value, complex)
                assert abs(value - sum_value(s.terms, z)) <= 1e-12 * size
            for e in eqs:
                m = e.monomial
                exact = term_value(m.sign, m.a, m.b, z)
                assert abs(term_value(m.sign, m.a, m.b, zf) - exact) <= 1e-12 * abs(exact)


def _polish_system(name, solved, seed=3):
    """The complete-structure polish Jacobian and right-hand side at a
    seeded perturbation of the complete point, at PRECISION bits."""
    tri = cf.load_fixture(name)
    rng = random.Random(seed)
    eqs = _gluing_rows(tri, [None] * len(tri.cusps))
    z = [v + mp.mpc(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
         for v in solved[name].shapes.z]
    return [e.gradient(z) for e in eqs], [-e.value(z) for e in eqs]


def _distance(x, y):
    return mp.sqrt(sum(abs(a - b) ** 2 for a, b in zip(x, y)))


@pytest.mark.parametrize("name", ["whitehead", "622", "berge"])
def test_least_squares_matches_qr_solve(name, solved):
    # one kernel for both scalar types: mpmath agrees with mpmath's QR
    # solve to 2^-(p-10), Python complex with mpmath to 1e-10, relative
    with mp.workprec(PRECISION):
        rows, rhs = _polish_system(name, solved)
        x = least_squares(rows, rhs)
        qr = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))[0]
        qr = [qr[i] for i in range(qr.rows)]
        assert _distance(x, qr) <= mp.mpf(2) ** (10 - PRECISION) * _distance(qr, [0] * len(qr))
        xf = least_squares([[complex(v) for v in row] for row in rows], [complex(v) for v in rhs])
        assert all(isinstance(v, complex) for v in xf)
        assert _distance(xf, x) <= 1e-10 * _distance(x, [0] * len(x))


@pytest.mark.parametrize("scalar", [mp.mpc, complex], ids=["mpmath", "complex"])
def test_least_squares_rank_deficient_raises(solved, scalar):
    # a repeated column makes the normal equations singular: least_squares
    # raises ZeroDivisionError; a repeated row makes the square pinned
    # system on a curve's kept rows singular, and pinned_factor turns that
    # into SolveError
    with mp.workprec(PRECISION):
        rows, rhs = _polish_system("whitehead", solved)
        rows = [[scalar(v) for v in row] for row in rows]
        rhs = [scalar(v) for v in rhs]
        least_squares(rows, rhs)
        repeated = [row + row[:1] for row in rows]
        with pytest.raises(ZeroDivisionError):
            least_squares(repeated, rhs)
        tri = cf.load_fixture("whitehead")
        jacobian = system_jacobian(completeness_system(tri, 0), list(solved["whitehead"].shapes.z))
        pin, kept = curve_pin(jacobian, PRECISION)
        square = [[scalar(v) for v in jacobian[i]] for i in kept]
        rhs = [-row[pin] for row in square]
        pinned_factor(square, pin)(rhs)
        with pytest.raises(SolveError, match="not a parameter"):
            pinned_factor(square[:-1] + square[:1], pin)


def _textbook_least_squares(rows, rhs):
    """Partial-pivoting elimination on the full normal equations: every
    entry of N summed, pivots by modulus, every column updated."""
    n = len(rows[0])
    with mp.extraprec(20):
        conj = [[v.conjugate() for v in row] for row in rows]
        aug = [[sum(c[i] * r[j] for c, r in zip(conj, rows)) for j in range(n)]
               + [sum(c[i] * v for c, v in zip(conj, rhs))]
               for i in range(n)]
        for col in range(n):
            piv = max(range(col, n), key=lambda k: abs(aug[k][col]))
            aug[col], aug[piv] = aug[piv], aug[col]
            for k in range(col + 1, n):
                f = aug[k][col] / aug[col][col]
                for c in range(col, n + 1):
                    aug[k][c] -= f * aug[col][c]
        x = [None] * n
        for i in reversed(range(n)):
            x[i] = (aug[i][n] - sum(aug[i][j] * x[j] for j in range(i + 1, n))) / aug[i][i]
    return x


def _random_system(rng, bits):
    """A seeded m x n system, m >= n, with about a quarter of its matrix
    entries the int 0 (as log gradients have them), rows[0][0] among them
    every other time; Python complex when bits is None (a third of them
    with every imaginary part 0.0, where signed zeros abound), else
    mpmath.  Row j < n keeps column j + shift (mod n) nonzero, so the
    system has full column rank for all but a null set of entries."""
    real = bits is None and rng.random() < 1 / 3

    def scalar():
        if bits is None:
            return complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
        return mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) / 3

    n = rng.randint(2, 6)
    m = n + rng.randint(0, 3)
    shift = rng.randint(0, 1)
    rows = [[0 if rng.random() < 0.25 else scalar() for _ in range(n)] for _ in range(m)]
    for j in range(n):
        rows[j][(j + shift) % n] = scalar()
    if shift:
        rows[0][0] = 0
    return rows, [scalar() for _ in range(m)]


@pytest.mark.parametrize("bits", [None], ids=["complex"])
def test_least_squares_matches_the_textbook_solve_bit_for_bit(bits):
    # one triangle of N and its conjugate, squared-magnitude pivots and no
    # update of the eliminated column: the same bits as the textbook form,
    # compared by repr (signed zeros count)
    def exact(x):
        return [(repr(v), getattr(v, "_mpc_", None)) for v in x]

    rng = random.Random(bits or 0)
    with mp.workprec(bits or 53):
        for _ in range(60):
            rows, rhs = _random_system(rng, bits)
            assert exact(least_squares(rows, rhs)) == exact(_textbook_least_squares(rows, rhs))


@pytest.mark.parametrize("bits", [128, 256 + 30, 512 + 30], ids=["128", "286", "542"])
def test_block_least_squares_is_as_accurate_as_the_textbook_solve(bits):
    # oracle: the textbook solve at three times the precision.  The block
    # solve runs at the guarded precision wp = bits + 20 with W = wp + wp // 16
    # bits; each solution is within 4 * 2^-wp of the oracle's norm, and the
    # worst of them is no further off than the worst textbook solve at wp
    # (with W = wp - 16 that fails)
    rng = random.Random(bits)
    worst_block = worst_textbook = 0
    with mp.workprec(bits):
        for _ in range(60):
            rows, rhs = _random_system(rng, bits)
            x, textbook = least_squares(rows, rhs), _textbook_least_squares(rows, rhs)
            assert all(type(v) is mp.mpc for v in x)
            with mp.workprec(3 * bits):
                ref = _textbook_least_squares(rows, rhs)
                size = _distance(ref, [0] * len(ref))
                worst_block = max(worst_block, _distance(x, ref) / size)
                worst_textbook = max(worst_textbook, _distance(textbook, ref) / size)
    assert worst_block <= 4 * mp.mpf(2) ** -(bits + 20)
    assert worst_block <= worst_textbook


def _augmented_solve(aug, eps, swapped):
    """The elimination of the augmented matrix [A | b] that the factored
    solve replaces, as it was written (with `_size` spelled out), with the
    columns whose pivot row was swapped in appended to `swapped`: the
    reference for `_lu_factor` + `_lu_solve`."""
    n = len(aug)
    tol = eps * max(sum(abs(row[j].real) + abs(row[j].imag) for row in aug) for j in range(n))
    for col in range(n):
        squares = [v.real * v.real + v.imag * v.imag
                   for v in (aug[k][col] for k in range(col, n))]
        piv = col + squares.index(max(squares))
        if abs(aug[piv][col].real) + abs(aug[piv][col].imag) <= tol:
            raise ZeroDivisionError("numerically singular square system")
        if piv != col:
            swapped.append(col)
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for k in range(col + 1, n):
            row = aug[k]
            f = row[col] / top[col]
            for c in range(col + 1, n + 1):
                row[c] -= f * top[c]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = (aug[i][n] - sum(aug[i][j] * x[j] for j in range(i + 1, n))) / aug[i][i]
    return x


# a matrix whose small diagonal forces row swaps at several columns, and two
# right-hand sides (each entry divided by 3 and by 7 in the scalar type)
_SWAPPING = ([1e-3, 1 + 2j, 2, 0.5j], [5 - 1j, 1e-3, 1j, 2], [1, 7j, 1e-3, 1 - 1j],
             [2j, 3, 9 + 1j, 1e-3])
_RIGHT_HAND_SIDES = ([1, 2j, -3, 4 + 1j], [0.5j, -1, 2, 3j])


@pytest.mark.parametrize("scalar", [complex], ids=["complex"])
def test_one_factorisation_solves_as_the_augmented_elimination(scalar):
    # factored once and solved for two right-hand sides, the swapping
    # matrix gives the bits of two eliminations of the augmented matrix,
    # compared by repr; a singular matrix still raises
    def exact(x):
        return [(repr(v), getattr(v, "_mpc_", None)) for v in x]

    with mp.workprec(PRECISION + 30):
        eps = mp.eps if scalar is mp.mpc else 2.0 ** -52
        a = [[scalar(v) / 3 for v in row] for row in _SWAPPING]
        rhs = [[scalar(v) / 7 for v in b] for b in _RIGHT_HAND_SIDES]
        factor = _lu_factor([list(row) for row in a])
        for b in rhs:
            swapped = []
            reference = _augmented_solve([list(row) + [v] for row, v in zip(a, b)], eps, swapped)
            assert len(swapped) >= 2
            assert exact(_lu_solve(factor, b)) == exact(reference)
        singular = [list(row) for row in a[:3]] + [list(a[0])]
        with pytest.raises(ZeroDivisionError):
            _lu_factor([list(row) for row in singular])
        with pytest.raises(ZeroDivisionError):
            _augmented_solve([row + [scalar(1)] for row in singular], eps, [])
        # as the kept rows of a pinned system, pin column 0 prepended
        rows = [[scalar(1)] + row for row in singular]
        with pytest.raises(SolveError, match="not a parameter"):
            pinned_factor(rows, 0)


def _value(form) -> Fraction:
    """The exact rational m 2^e of the pair (m, e)."""
    m, e = form
    return Fraction(m) * Fraction(2) ** e


def _augmented_block_solve(aug, swapped):
    """The elimination of the augmented block-form matrix [A | b], written
    out from the block primitives, with its pivots and its singular test
    decided on exact rationals, and the columns whose pivot row was swapped
    in appended to `swapped`: the reference for `block_factor` +
    `block_solve`."""
    n, width = len(aug), blockform.block_width()

    def minus(x, y):
        return blockform.cut(*blockform.aligned([x, (-y[0], -y[1], y[2])]), width)

    tol = Fraction(2) ** (1 - mp.prec) * max(
        sum(_value((abs(row[j][0]) + abs(row[j][1]), row[j][2])) for row in aug)
        for j in range(n))
    for col in range(n):
        squares = [_value((re * re + im * im, 2 * e))
                   for re, im, e in (row[col] for row in aug[col:])]
        piv = col + squares.index(max(squares))
        re, im, e = aug[piv][col]
        if _value((abs(re) + abs(im), e)) <= tol:
            raise ZeroDivisionError("numerically singular square system")
        if piv != col:
            swapped.append(col)
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        inverse = blockform.inverse(top[col], width)
        for row in aug[col + 1:]:
            if row[col][:2] != (0, 0):
                f = blockform.mul(row[col], inverse, width)
                for c in range(col + 1, n + 1):
                    row[c] = minus(row[c], blockform.mul(f, top[c], width))
    x = [None] * n
    for i in reversed(range(n)):
        terms = [aug[i][n]] + [(-re, -im, e) for re, im, e in
                               (blockform.mul(aug[i][j], x[j], width) for j in range(i + 1, n))]
        total = blockform.cut(*blockform.aligned(terms), width)
        x[i] = blockform.mul(total, blockform.inverse(aug[i][i], width), width)
    return x


@pytest.mark.parametrize("bits", [128, 256 + 30, 512 + 30], ids=["128", "286", "542"])
def test_one_block_factorisation_solves_as_the_augmented_block_elimination(bits):
    # the swapping matrix in mpmath, with an exact zero below the diagonal:
    # factored once in block form and solved for two right-hand sides, it
    # gives the ints of two block eliminations of the augmented matrix; a
    # singular matrix still raises, and pinned_factor, which works with 20
    # guard bits, rounds the guarded elimination's solution once to mpmath
    def augmented(a, b):
        return [[blockform.block(v) for v in row] + [blockform.block(w)] for row, w in zip(a, b)]

    with mp.workprec(bits):
        a = [[mp.mpc(v) / 3 for v in row] for row in _SWAPPING]
        a[3][1] = 0
        rhs = [[mp.mpc(v) / 7 for v in b] for b in _RIGHT_HAND_SIDES]
        factor = blockform.block_factor([[blockform.block(v) for v in row] for row in a])
        for b in rhs:
            swapped = []
            reference = _augmented_block_solve(augmented(a, b), swapped)
            assert len(swapped) >= 2
            assert blockform.block_solve(factor, [blockform.block(v) for v in b]) == reference
            with mp.extraprec(20):
                guarded = [blockform.to_mpc(v)._mpc_
                           for v in _augmented_block_solve(augmented(a, b), [])]
            x = pinned_factor([[mp.mpc(0)] + row for row in a], 0)(b)
            assert [v._mpc_ for v in x[1:]] == guarded and x[0] == 0
        singular = [list(row) for row in a[:3]] + [list(a[0])]
        with pytest.raises(ZeroDivisionError):
            blockform.block_factor([[blockform.block(v) for v in row] for row in singular])
        with pytest.raises(ZeroDivisionError):
            _augmented_block_solve(augmented(singular, [1] * 4), [])
        with pytest.raises(SolveError, match="not a parameter"):
            pinned_factor([[mp.mpc(1)] + row for row in singular], 0)


def test_block_linear_algebra_takes_no_mpmath_arithmetic(monkeypatch, whitehead, solved,
                                                         completeness_rows):
    # least squares and the pinned solves at mpmath work in block form, and
    # so does least squares on complex rows with a block-form rhs; the
    # complex factorisation of the same pinned rows solves the mpmath rhs in
    # Python complex: no mpc or mpf operator runs, singular systems
    # included; nor does the kernel decision, curve_pin on every fixture
    # curve at 256 bits and the refusal of a full-rank square
    with mp.workprec(PRECISION + 30):
        rows, rhs = _polish_system("whitehead", solved)
        repeated = [row + row[:1] for row in rows]
        complex_rows = [[complex(v) for v in row] for row in rows]
        block_rhs = [blockform.block(v) for v in rhs]
        z = list(solved["whitehead"].shapes.z)
        jacobian = system_jacobian(completeness_system(whitehead, 0), z)
        pin, kept = curve_pin(jacobian, PRECISION)
        square = [jacobian[i] for i in kept]
        machine = [[complex(v) for v in row] for row in square]
        values = [-row[pin] for row in square]
        full = [[v for i, v in enumerate(row) if i != pin] for row in square]
        curves = [rows for _, rows in completeness_rows[PRECISION]]
        counts = count_mpmath_arithmetic(monkeypatch)

        x = least_squares(rows, rhs)
        y = least_squares(complex_rows, block_rhs)
        decisions = [curve_pin(rows, PRECISION) for rows in curves]
        with pytest.raises(KernelDimensionError, match="kernel dimension 0 at the complete"):
            numerical_kernel(full, PRECISION)
        dz = pinned_factor(square, pin)(values)
        machine_dz = pinned_factor(machine, pin)(values)
        with pytest.raises(ZeroDivisionError):
            least_squares(repeated, rhs)
        with pytest.raises(SolveError, match="not a parameter"):
            pinned_factor(square[:-1] + square[:1], pin)
        assert counts == {}
        assert len(decisions) == 6
        assert all(type(v) is mp.mpc for v in (*x, *y, *dz))
        assert all(type(v) is complex for v in machine_dz)
        # the complex rows agree with the mpmath ones to machine precision
        assert max(abs(v - w) for v, w in zip(machine_dz, dz)) <= 1e-13 * max(map(abs, dz))
        assert max(abs(v - w) for v, w in zip(y, x)) <= 1e-13 * max(map(abs, x))


@pytest.mark.parametrize("bits", [128, 256 + 30, 512 + 30], ids=["128", "286", "542"])
@pytest.mark.parametrize("filled", [False, True], ids=["complete", "filled"])
def test_residual_roots_only_the_largest_square(monkeypatch, solved, bits, filled):
    # at mpmath points near the complete structure (2^-10 to 2^-(bits/2)
    # off) and far from it, the residual over the cleared rows, and the
    # filling rows of a filled cusp, is the largest row residual bit for
    # bit, from one square root
    from cuspforge.solver import _residual

    sqrt, roots = blockform.mpf_sqrt, []

    def counted(*args):
        roots.append(args)
        return sqrt(*args)

    rng = random.Random(bits)
    with mp.workprec(bits):
        for name, result in solved.items():
            tri = cf.load_fixture(name)
            fillings = [None] * len(tri.cusps)
            if filled:
                fillings[-1] = (1, 3)
            rows = _gluing_rows(tri, fillings)
            points = [[mp.mpc(v) for v in shapes.z]
                      for shapes in take(rational_point_sampler(tri.n_tet, seed=bits), 3)]
            for scale in (10, 40, bits // 2):
                step = mp.mpf(2) ** -scale
                points.append([v + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * step
                               for v in result.shapes.z])
            for z in points:
                expected = max(e.residual(Point(z)) for e in rows)
                with monkeypatch.context() as patch:
                    patch.setattr(blockform, "mpf_sqrt", counted)
                    roots.clear()
                    got = _residual(rows, z)
                assert got._mpf_ == expected._mpf_, name
                assert len(roots) == 1


@pytest.mark.parametrize("bits", [128, 256 + 30, 512 + 30, None],
                         ids=["128", "286", "542", "complex"])
def test_jacobian_from_term_products_matches_the_derivative_sums(solved, bits):
    # oracle: the exact derivative sums of each cleared row, evaluated at
    # the working precision (128 bits for the complex points); the
    # Jacobian formed from the rows' term products, as the solvers take it
    # (`row`) and as `gradient` rounds it, agrees to 2^-(wp-8) of the size
    # of the derivative's terms before cancellation, or 1e-12 of it on
    # Python complex, at the complete point and at 3 seeded points
    with mp.workprec(bits or 128):
        for name, result in solved.items():
            tri = cf.load_fixture(name)
            rows = _gluing_rows(tri, [None] * len(tri.cusps))
            # the completeness rows of every cusp are among the complete rows
            assert all(e in rows for cusp in range(len(tri.cusps))
                       for e in completeness_system(tri, cusp))
            points = [result.shapes] + take(rational_point_sampler(tri.n_tet, seed=17), 3)
            for shapes in points:
                z = [mp.mpc(complex(v)) if bits is None else mp.mpc(v) for v in shapes.z]
                point = Point([complex(v) for v in z] if bits is None else z)
                exact_at = ShapeAssignment(tuple(z), bits or 128)
                for e in rows:
                    row = e.row(point)
                    views = [e.gradient(point),
                             row if bits is None else [blockform.to_mpc(v) for v in row]]
                    for i in range(tri.n_tet):
                        d = e.cleared.derivative(i)
                        exact = d.evaluate(exact_at)
                        size = sum(abs(term_value(c, a, b, z)) for (a, b), c in d.terms.items())
                        tol = 1e-12 * size if bits is None else mp.mpf(2) ** (8 - bits) * size
                        for view in views:
                            assert abs(view[i] - exact) <= tol, (name, str(e.monomial), i)


def test_a_corrector_step_forms_each_term_product_once(monkeypatch, solved):
    # at one mpmath Point, the residual and then a Newton step's values and
    # Jacobian form each distinct cleared-term product once, and no value or
    # Jacobian entry is rounded to mpmath: only the entries of the step are
    import cuspforge.holonomy as holonomy
    import cuspforge.solver as solver

    product, to_mpc = holonomy.Point._product, blockform.to_mpc
    products, rounded = [], []

    def counted_product(self, keys):
        products.append(keys)
        return product(self, keys)

    def counted_to_mpc(form):
        rounded.append(form)
        return to_mpc(form)

    rng = random.Random(41)
    with mp.workprec(PRECISION + 30):
        for name, result in solved.items():
            tri = cf.load_fixture(name)
            complete = _gluing_rows(tri, [None] * len(tri.cusps))
            curve = completeness_system(tri, 0)
            pin, kept = curve_pin(system_jacobian(curve, list(result.shapes.z)), PRECISION)
            for rows in (complete, [curve[i] for i in kept]):
                z = Point([v + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf(2) ** -20
                           for v in result.shapes.z])
                with monkeypatch.context() as patch:
                    patch.setattr(holonomy.Point, "_product", counted_product)
                    patch.setattr(holonomy, "to_mpc", counted_to_mpc)
                    patch.setattr(solver, "to_mpc", counted_to_mpc)
                    products.clear()
                    rounded.clear()
                    solver._residual(rows, z)
                    jacobian, values = [e.row(z) for e in rows], [e.rhs(z) for e in rows]
                    assert rounded == [], name
                    if rows is complete:
                        step = least_squares(jacobian, values)
                    else:
                        step = pinned_factor(jacobian, pin)(values)
                distinct = {key for e in rows for key in e.monomial.split()}
                assert len(products) == len(set(products)) == len(distinct), name
                assert len(rounded) == len(step) - (rows is not complete), name


@pytest.mark.parametrize("first_row", [[0, 0j], [0j, 0], [0, 0]],
                         ids=["int-then-complex", "complex-then-int", "ints"])
def test_least_squares_machine_roundoff_with_int_entries(first_row):
    # two columns equal to about 3e-9: singular in machine precision
    # wherever the int zeros sit, since the unit roundoff is read off the
    # first entry that is not an int (complex here, the float 1 + d below
    # for the all-int first row), never off rows[0][0]
    d = 3e-9
    rows = [list(first_row), [1, 1], [1, 1 + d]]
    with pytest.raises(ZeroDivisionError):
        least_squares(rows, [0, 1, 2])
    with pytest.raises(ZeroDivisionError):
        least_squares(rows[1:] + rows[:1], [1, 2, 0])


def test_trace_curve_whitehead(whitehead, solved):
    samples = trace_completeness_curve(
        whitehead, 0, n_points=6, step=1e-3,
        precision_bits=PRECISION, start=solved["whitehead"])
    assert len(samples) == 7
    for shapes, tau in samples:
        x = shapes.z[1]
        assert abs(tau - (4 * x / (1 - x ** 2) - 2)) < mp.mpf("1e-30")
    # the curve actually moves
    assert abs(samples[-1][0].z[1] - samples[0][0].z[1]) > mp.mpf("1e-4")


def test_trace_refuses_a_start_at_another_precision(whitehead, solved):
    # a 256-bit start would be returned as sample 0 labelled 512 bits
    with pytest.raises(ValueError, match="start solved at 256 bits"):
        trace_completeness_curve(whitehead, 0, n_points=2, precision_bits=2 * PRECISION,
                                 start=solved["whitehead"])


def test_trace_curve_622_stays_on_polynomial(link622, solved):
    samples = trace_completeness_curve(
        link622, 0, n_points=6, step=1e-3,
        precision_bits=PRECISION, start=solved["622"])
    for shapes, _ in samples:
        z1, z1p = shapes.z[0], shapes.z[1]
        p = (z1p ** 3 * z1 + z1p ** 2 * z1 ** 2 + z1p * z1 ** 3
             - z1p ** 2 - 3 * z1p * z1 - z1 ** 2 + 2 * z1p + 2 * z1 - 1)
        assert abs(p) < mp.mpf("1e-30")


def test_trace_curve_berge_second_order_spread(berge, solved):
    # tau_c is stationary to first order but moves at second order: the
    # spread over k steps of size h matches the quadratic Taylor model
    # built from d2_tau within a factor of 2
    from cuspforge.isolation import tau_derivatives

    h = mp.mpf("1e-3")
    samples = trace_completeness_curve(
        berge, 0, n_points=5, step=h, precision_bits=PRECISION,
        start=solved["berge"])
    info = tau_derivatives(berge, 0, solved["berge"].shapes)
    # unit-speed reparametrization of the pinned-coordinate derivatives
    dz_norm = mp.sqrt(sum(abs(v) ** 2 for v in info["dz"]))
    d2_unit = abs(info["d2_tau"]) / dz_norm ** 2
    tau0 = samples[0][1]
    for k in (3, 5):
        spread = abs(samples[k][1] - tau0)
        model = d2_unit * (k * h) ** 2 / 2
        assert model / 2 < spread < model * 2


@pytest.mark.parametrize("name", ["whitehead", "622", "berge"])
def test_trace_spread_reproduces_at_doubled_precision(name, solved):
    # isolation's certification rule: the 8-point spread at step 1e-3
    # agrees between p and 2p bits to 2^-(p/2) relative, for every cusp
    tri = cf.load_fixture(name)
    low = solved[name]
    high = solve_complete(tri, 2 * PRECISION, initial=low.shapes)
    for cusp in range(len(tri.cusps)):
        spreads = []
        for start in (low, high):
            samples = trace_completeness_curve(
                tri, cusp, n_points=8, step=1e-3,
                precision_bits=start.shapes.precision_bits, start=start)
            spreads.append(max(abs(t - samples[0][1]) for _, t in samples[1:]))
        assert abs(spreads[0] - spreads[1]) < mp.mpf(2) ** (-PRECISION // 2) * (1 + spreads[1])


def test_kernel_check_runs_once_per_curve(monkeypatch, berge, solved):
    # the kernel check finds the rank, the pinned coordinate and the kept
    # rows once per curve: every later tangent is a pinned solve, and
    # isolation's doubled-precision pass reuses the pin and the kept rows
    import cuspforge.isolation as isolation
    import cuspforge.solver as solver

    kernel = solver.numerical_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    derivatives = isolation.tau_derivatives
    passes = []

    def recorded(*args, **kwargs):
        info = derivatives(*args, **kwargs)
        passes.append((kwargs.get("curve"), info))
        return info

    monkeypatch.setattr(solver, "numerical_kernel", counted)
    monkeypatch.setattr(isolation, "tau_derivatives", recorded)
    trace_completeness_curve(berge, 0, n_points=8, step=1e-3,
                             precision_bits=PRECISION, start=solved["berge"])
    assert len(calls) == 1
    calls.clear()
    ev = isolation.isolation_verdict(berge, 0, start=solved["berge"])
    assert ev.order == 2 and len(calls) == 1
    (curve, low), (curve_2p, high) = passes
    assert curve is None and len(low["kept"]) == berge.n_tet - 1
    assert curve_2p == (low["pin"], low["kept"]) == (high["pin"], high["kept"])
    assert ev.jacobian_rank == len(low["kept"])


def _least_squares_pinned_factor(rows, pin):
    """The pinned solver as least squares over every row given, the columns
    other than `pin`: the reference for the square solves on kept rows."""
    free = [i for i in range(len(rows[0])) if i != pin]

    def solve(rhs):
        try:
            u = least_squares([[row[i] for i in free] for row in rows], rhs)
        except ZeroDivisionError as exc:
            raise SolveError(f"coordinate {pin} is not a parameter for the curve here") from exc
        x = [mp.mpc(0)] * len(rows[0])
        for i, v in zip(free, u):
            x[i] = v
        return x
    return solve


def _pinned_by_least_squares(monkeypatch):
    """Make every pinned step of tracing and of the derivatives a least-squares
    solve on the whole completeness system: curve_pin keeps every row.
    Returns the list that gets one entry per solve of the derivatives."""
    import cuspforge.isolation as isolation
    import cuspforge.solver as solver

    pin = solver.curve_pin

    def keep_every_row(rows, bits):
        return pin(rows, bits)[0], tuple(range(len(rows)))

    derivative_solves = []

    def counted_factor(rows, pin):
        solve = _least_squares_pinned_factor(rows, pin)

        def counted(rhs):
            derivative_solves.append(pin)
            return solve(rhs)
        return counted

    for module, factor in ((solver, _least_squares_pinned_factor), (isolation, counted_factor)):
        monkeypatch.setattr(module, "curve_pin", keep_every_row)
        monkeypatch.setattr(module, "pinned_factor", factor)
    return derivative_solves


@pytest.mark.parametrize("bits", [256, 512])
def test_square_pinned_steps_match_least_squares(monkeypatch, solved, bits):
    # oracle: least squares on the whole pinned system; the trace samples
    # of every cusp agree with it to 2^-p and the derivatives, d_tau,
    # d2_tau and the tangent, to 2^-(p-10) relative
    from cuspforge.isolation import tau_derivatives

    def run():
        out = []
        for name, low in solved.items():
            tri = cf.load_fixture(name)
            start = solve_complete(tri, bits, initial=low.shapes)
            for cusp in range(len(tri.cusps)):
                samples = trace_completeness_curve(tri, cusp, n_points=8, step=1e-3,
                                                   precision_bits=bits, start=start)
                info = tau_derivatives(tri, cusp, start.shapes)
                out.append((f"{name}.{cusp}", samples, info))
        return out

    square = run()
    with monkeypatch.context() as patch:
        derivative_solves = _pinned_by_least_squares(patch)
        reference = run()
    # both solves of every derivative pass, dz and d2z, went through least squares
    assert len(derivative_solves) == 2 * len(reference)
    with mp.workprec(bits + 30):
        for (label, samples, info), (_, ref_samples, ref_info) in zip(square, reference):
            assert len(samples) == len(ref_samples) == 9, label
            for (shapes, tau), (ref_shapes, ref_tau) in zip(samples, ref_samples):
                for v, w in zip((*shapes.z, tau), (*ref_shapes.z, ref_tau)):
                    assert abs(v - w) <= mp.mpf(2) ** -bits * (1 + abs(w)), label
            assert info["pin"] == ref_info["pin"], label
            tol = mp.mpf(2) ** (10 - bits)
            for key in ("d_tau", "d2_tau"):
                assert abs(info[key] - ref_info[key]) <= tol * (1 + abs(ref_info[key])), label
            assert max(abs(v - w) for v, w in zip(info["tangent"], ref_info["tangent"])) <= tol


def test_a_root_that_misses_a_dropped_row_is_rejected(monkeypatch, whitehead, solved):
    # one row that curve_pin drops is shifted by 1e-10: the pinned steps on
    # the kept rows never see it, but the corrector accepts a point only by
    # its residual over every row, so the trace fails rather than return
    # samples off the shifted locus
    import cuspforge.solver as solver

    start = solved["whitehead"]
    system = solver.completeness_system
    with mp.workprec(PRECISION + 30):
        rows = system_jacobian(system(whitehead, 0), list(start.shapes.z))
        kept = curve_pin(rows, PRECISION)[1]
    dropped = [i for i in range(len(rows)) if i not in kept]
    assert len(dropped) == 2

    class Shifted(PolynomialEquation):
        def value(self, z):
            return super().value(z) - mp.mpf("1e-10")

        def residual(self, z):
            return abs(self.value(z))

    def shifted(tri, cusp):
        eqs = system(tri, cusp)
        eqs[dropped[0]] = Shifted(eqs[dropped[0]].monomial)
        return eqs

    monkeypatch.setattr(solver, "completeness_system", shifted)
    with pytest.raises(SolveError, match="corrector diverged"):
        trace_completeness_curve(whitehead, 0, n_points=2, step=1e-3,
                                 precision_bits=PRECISION, start=start)


def _count_equations(monkeypatch):
    """A list whose length counts the `PolynomialEquation`s built from now on."""
    built = []
    init = PolynomialEquation.__init__

    def counting(self, monomial):
        built.append(monomial)
        init(self, monomial)

    monkeypatch.setattr(PolynomialEquation, "__init__", counting)
    return built


def _recorded():
    """The keys, ids of live triangulations, of the records that
    `solver.invariants` holds."""
    import cuspforge.solver as solver

    gc.collect()
    return set(solver._INVARIANTS)


def test_a_screen_builds_each_equation_once(monkeypatch, tmp_path):
    # the records are keyed by identity: each parse has its own, and a
    # batch screen keeps none of the manifolds it has finished
    from cuspforge.screen import RIGID_NOT_ISOLATED, resolve_input, screen

    paths = []
    for name in ("whitehead", "622", "berge"):
        data = json.loads(resolve_input(name).read_text())
        data["name"] = f"{name}-memo"
        paths.append(tmp_path / f"{name}-memo.json")
        paths[-1].write_text(json.dumps(data))

    def monomials(tri):
        return {*tri.edge_equations(),
                *(mu(tri, curve) for c in tri.cusps for curve in (c.meridian, c.longitude))}

    distinct = sum(len(monomials(cf.read_triangulation(path))) for path in paths)
    before = _recorded()
    built = _count_equations(monkeypatch)
    reports = screen(paths)
    assert [r.verdict for r in reports] == [RIGID_NOT_ISOLATED] * 3
    assert len(built) == distinct == 25
    assert _recorded() <= before


def test_a_fill_sweep_builds_each_equation_once(monkeypatch, whitehead):
    import cuspforge.solver as solver
    from cuspforge.screen import fill_and_screen

    tri = dataclasses.replace(whitehead, name="whitehead-fill")
    built = _count_equations(monkeypatch)
    reports = fill_and_screen(tri, 1, [n for n in range(-5, 6) if n])
    assert len(reports) == 10 and not any(r.error for r in reports)
    # whitehead's two E0 edges share one monomial: 3 edge equations and 4
    # peripheral ones
    assert len(built) == 7
    # filling rows carry per-solve state and are never memoised
    memo = solver.invariants(tri).equations
    assert len(memo) == 7
    assert all(type(e) is PolynomialEquation and e.monomial == m for m, e in memo.items())


def test_a_fill_sweep_runs_one_start_search(monkeypatch, whitehead):
    # every (1, n) of a sweep ramps from the one start search kept in its
    # triangulation's record: the first sweep runs one schedule (whitehead's
    # first start gives a geometric root), a second sweep on the same object
    # none, and a renamed copy its own.  With the memos cleared first, the
    # two records are the only ones, and each goes with its triangulation
    import cuspforge.solver as solver
    from cuspforge.screen import fill_and_screen

    search, calls = solver._float_search, []
    monkeypatch.setattr(solver, "_float_search",
                        lambda rows, z: calls.append(z) or search(rows, z))
    n_values = [n for n in range(-5, 6) if n]
    tri = dataclasses.replace(whitehead, name="whitehead-search")
    clear_memos()
    first = fill_and_screen(tri, 1, n_values)
    assert len(calls) == 1 and all(r.solve["restarts_used"] == 0 for r in first)
    second = fill_and_screen(tri, 1, n_values)
    assert len(calls) == 1 and [r.to_json() for r in second] == [r.to_json() for r in first]
    copy = dataclasses.replace(tri, name="whitehead-search-copy")
    fill_and_screen(copy, 1, [2])
    assert len(calls) == 2
    assert _recorded() == {id(tri), id(copy)}
    del tri, copy
    assert _recorded() == set()


def test_the_doubled_polish_refuses_a_moved_root(whitehead):
    # a meridian turn that is not the p solve's own sends the 2p polish of
    # whitehead c2 (1, 2) to another root, at a residual that passes:
    # refused by the move of its shapes, not by the residual
    filled = solve_filled(whitehead, [None, (1, 2)], PRECISION)
    (m, l), = filled.branch_offsets
    turned = dataclasses.replace(filled, branch_offsets=((m + 1, l),))
    with pytest.raises(SolveError, match=r"^'whitehead': the 512-bit polish of the filled "
                                         r"structure moved a shape by \S+ from the 256-bit one$"):
        doubled_structure(whitehead, turned)
    assert doubled_structure(whitehead, filled).shapes.precision_bits == 2 * PRECISION


def test_filling_logs_are_memoised_on_the_point(monkeypatch, whitehead):
    # a filling row's principal logs live on the mpmath Point: the residual
    # and the step at a point, and branch_offsets and the core translations
    # at the end, share them, and the 2p polish starts on the Point its
    # branch references were taken at.  16 mp.log calls per fill op at 256
    # bits; 18 when the polish started on a new Point, 30 when each
    # evaluation took its own
    from cuspforge.screen import fill_and_screen

    calls = []
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda x, *args: calls.append(x) or log(x, *args))
    for n in (-5, 2, 3):
        calls.clear()
        report, = fill_and_screen(whitehead, 1, [n])
        assert report.error is None and report.cusps[0].minpoly is not None
        assert len(calls) == 16, n


def test_a_trace_on_a_solved_triangulation_builds_nothing(monkeypatch, whitehead):
    tri = dataclasses.replace(whitehead, name="whitehead-trace")
    start = solve_complete(tri, PRECISION)
    built = _count_equations(monkeypatch)
    for cusp in (0, 1, 0):
        trace_completeness_curve(tri, cusp, n_points=2, precision_bits=PRECISION, start=start)
    assert built == []
    # each call hands out a new list of the same equations
    assert completeness_system(tri, 0) is not completeness_system(tri, 0)
    assert all(a is b for a, b in zip(completeness_system(tri, 0), completeness_system(tri, 0)))


def test_the_equations_go_with_their_triangulation(whitehead):
    tri = dataclasses.replace(whitehead, name="whitehead-dropped")
    completeness_system(tri, 0)
    assert id(tri) in _recorded()
    key, ref = id(tri), weakref.ref(tri)
    del tri
    assert key not in _recorded()
    assert ref() is None


@pytest.fixture(scope="module")
def trace_starts(solved):
    """bits -> [(triangulation, complete structure)] of every fixture, the
    standard solves polished to 256 and 512 bits."""
    return {bits: [(tri, solve_complete(tri, bits, initial=solved[tri.name].shapes))
                   for tri in map(cf.load_fixture, solved)]
            for bits in (256, 512)}


def _traces(starts, bits):
    """label -> the 8-point samples at `bits` of every cusp of `starts`."""
    return {f"{tri.name}.{cusp}": trace_completeness_curve(
                tri, cusp, n_points=8, step=1e-3, precision_bits=bits, start=start)
            for tri, start in starts[bits] for cusp in range(len(tri.cusps))}


@pytest.fixture(scope="module")
def default_traces(trace_starts):
    """bits -> `_traces` with the corrector as it ships."""
    return {bits: _traces(trace_starts, bits) for bits in (256, 512)}


def _assert_samples_agree(traces, reference, bits):
    """Every shape and cusp parameter of every trace agrees with the
    reference to 2^-p relative."""
    assert traces.keys() == reference.keys()
    with mp.workprec(bits + 30):
        for label, samples in traces.items():
            assert len(samples) == len(reference[label]) == 9, label
            for (shapes, tau), (ref_shapes, ref_tau) in zip(samples, reference[label]):
                for v, w in zip((*shapes.z, tau), (*ref_shapes.z, ref_tau)):
                    assert abs(v - w) <= mp.mpf(2) ** -bits * (1 + abs(w)), label


def _is_machine(rows) -> bool:
    """Whether a Jacobian holds Python complex (else mpmath) entries."""
    return isinstance(next(v for row in rows for v in row if not isinstance(v, int)), complex)


def test_pinned_factor_solves_in_the_scalar_type_of_its_rows(whitehead, solved):
    # on complex rows every entry of the solution is complex, the zero at
    # the pin included, whether the rhs is complex, mpmath or in block
    # form, and it is the mpmath solve of the same rows to 1e-13; on mpmath
    # rows a complex rhs gives mpmath entries
    with mp.workprec(PRECISION + 30):
        rows = system_jacobian(completeness_system(whitehead, 0), list(solved["whitehead"].shapes.z))
        pin, kept = curve_pin(rows, PRECISION)
        square = [rows[i] for i in kept]
        values = [-row[pin] for row in square]
        exact = pinned_factor(square, pin)(values)
        machine = [[complex(v) for v in row] for row in square]
        solve = pinned_factor(machine, pin)
        for rhs in ([complex(v) for v in values], values, [blockform.block(v) for v in values]):
            x = solve(rhs)
            assert [type(v) for v in x] == [complex] * len(rows[0])
            assert x[pin] == 0
            error = max(abs(v - complex(w)) for v, w in zip(x, exact))
            assert error <= 1e-13 * max(map(abs, exact))
        # the block forms of the mpmath values round to the same complex rhs
        assert x == solve([complex(v) for v in values])
        y = pinned_factor(square, pin)([complex(v) for v in values])
        assert [type(v) for v in (*exact, *y)] == [mp.mpc] * 2 * len(rows[0])
        assert exact[pin] == y[pin] == 0


def _refuse_complex_factorisations(monkeypatch, error):
    """Make every pinned factorisation of complex rows raise `error`, as a
    singular or non-finite complex Jacobian would; returns the list that
    gets one entry per refusal."""
    import cuspforge.solver as solver

    factor, refused = solver.pinned_factor, []

    def no_machine_factor(rows, pin):
        if _is_machine(rows):
            refused.append(pin)
            raise error("complex factorisation refused")
        return factor(rows, pin)

    monkeypatch.setattr(solver, "pinned_factor", no_machine_factor)
    return refused


@pytest.mark.parametrize("bits", [256, 512])
def test_float_stage_matches_the_mpmath_corrector(monkeypatch, trace_starts, default_traces, bits):
    # oracle: with every complex factorisation refused, every corrector
    # step is a working-precision pinned step; the samples of every
    # fixture cusp agree with the default corrector's, whose first two
    # steps of a point factor in Python complex, to 2^-p
    _refuse_complex_factorisations(monkeypatch, SolveError)
    _assert_samples_agree(_traces(trace_starts, bits), default_traces[bits], bits)


@pytest.mark.parametrize("bits, per_point", [(256, 3), (512, 4)])
def test_mpmath_factorisations_per_traced_point(monkeypatch, trace_starts, bits, per_point):
    # each point of an 8-point trace factors one mpmath Jacobian for its
    # tangent and per_point - 1 for the corrector, after two in machine
    # precision (the corrector's first two steps); every sample keeps the
    # pinned coordinate of its prediction bit for bit
    import cuspforge.solver as solver

    factor, newton, pin_of = solver.pinned_factor, solver._damped_newton, solver.curve_pin
    calls = {True: 0, False: 0}
    predictions, pins = [], []

    def counted(rows, pin):
        calls[_is_machine(rows)] += 1
        return factor(rows, pin)

    def recorded_newton(z, *args):
        predictions.append(z[pins[-1]])
        return newton(z, *args)

    def recorded_pin(rows, bits):
        found = pin_of(rows, bits)
        pins.append(found[0])
        return found

    monkeypatch.setattr(solver, "pinned_factor", counted)
    monkeypatch.setattr(solver, "_damped_newton", recorded_newton)
    monkeypatch.setattr(solver, "curve_pin", recorded_pin)
    for tri, start in trace_starts[bits]:
        for cusp in range(len(tri.cusps)):
            calls.update({True: 0, False: 0})
            predictions.clear()
            samples = trace_completeness_curve(tri, cusp, n_points=8, step=1e-3,
                                               precision_bits=bits, start=start)
            assert calls == {False: 8 * per_point, True: 8 * 2}, (tri.name, cusp)
            assert [shapes.z[pins[-1]]._mpc_ for shapes, _ in samples[1:]] == \
                [v._mpc_ for v in predictions], (tri.name, cusp)


@pytest.mark.parametrize("bits", [256, 512])
def test_float_stage_is_an_acceleration_only(monkeypatch, trace_starts, default_traces, bits):
    # every complex factorisation fails: the corrector's first two steps
    # fall back to working precision, so the trace returns the same 9
    # samples to 2^-p, with no SolveError and one corrector run per point
    # (no step halving)
    import cuspforge.solver as solver

    refused = _refuse_complex_factorisations(monkeypatch, ZeroDivisionError)
    newton = solver._damped_newton
    runs = []

    def counted(*args):
        runs.append(1)
        return newton(*args)

    monkeypatch.setattr(solver, "_damped_newton", counted)
    traces = _traces(trace_starts, bits)
    _assert_samples_agree(traces, default_traces[bits], bits)
    assert len(runs) == 8 * len(traces)
    # both machine-precision steps are tried at every point
    assert len(refused) == 2 * 8 * len(traces)


def test_no_machine_precision_value_enters_block_form(monkeypatch, whitehead, solved):
    # a screen at 128 bits, a filled solve and a 256-bit trace of each cusp
    # never take a Python complex or float into block form: every
    # working-precision solve factors working-precision entries, and a
    # complex factorisation solves in Python complex
    import cuspforge.holonomy as holonomy
    import cuspforge.isolation as isolation
    import cuspforge.solver as solver
    from cuspforge.screen import RIGID_NOT_ISOLATED, ScreenOptions, resolve_input, screen

    block = blockform.block

    def no_machine_block(v):
        if isinstance(v, (complex, float)):
            raise AssertionError(f"machine-precision value {v!r} taken into block form")
        return block(v)

    for module in (blockform, holonomy, isolation, solver):
        monkeypatch.setattr(module, "block", no_machine_block)
    with mp.workprec(128 + 30):
        reports = screen([resolve_input("whitehead")], ScreenOptions(precision_bits=128))
    assert [r.verdict for r in reports] == [RIGID_NOT_ISOLATED]
    assert solve_filled(whitehead, ["complete", (1, 2)], PRECISION).success
    for cusp in range(len(whitehead.cusps)):
        samples = trace_completeness_curve(whitehead, cusp, n_points=8, step=1e-3,
                                           precision_bits=PRECISION, start=solved["whitehead"])
        assert len(samples) == 9


def _textbook_pinned_factor(rows, pin):
    """The pinned solver as the mpmath elimination of the augmented matrix
    (`_augmented_solve`, mpmath operators at 20 guard bits): the reference
    for the block-form pinned solves."""
    free = [i for i in range(len(rows[0])) if i != pin]

    def solve(rhs):
        with mp.extraprec(20):
            u = _augmented_solve([[row[i] for i in free] + [v] for row, v in zip(rows, rhs)],
                                 mp.eps, [])
        u.insert(pin, mp.mpc(0))
        return u
    return solve


@pytest.mark.parametrize("bits", [256, 512])
def test_block_derivatives_match_an_mpmath_elimination(monkeypatch, trace_starts, bits):
    # oracle: the derivative pass of every fixture cusp with its pinned
    # solves done by mpmath elimination; dz, d2z and the tangent agree
    # normwise, and d_tau and d2_tau to 2^-(p+20) (1 + |d|), where the
    # working precision is p + 30 bits
    import cuspforge.isolation as isolation

    def derivatives():
        return [isolation.tau_derivatives(tri, cusp, start.shapes)
                for tri, start in trace_starts[bits] for cusp in range(len(tri.cusps))]

    block = derivatives()
    monkeypatch.setattr(isolation, "pinned_factor", _textbook_pinned_factor)
    tol = mp.mpf(2) ** -(bits + 20)
    with mp.workprec(bits + 30):
        for info, ref in zip(block, derivatives()):
            for key in ("dz", "d2z", "tangent"):
                size = max(abs(w) for w in ref[key])
                assert max(abs(v - w) for v, w in zip(info[key], ref[key])) <= tol * size, key
            for key in ("d_tau", "d2_tau"):
                assert abs(info[key] - ref[key]) <= tol * (1 + abs(ref[key])), key


@pytest.fixture(scope="module")
def completeness_rows(solved):
    """bits -> [(label, Jacobian rows)] of all six completeness curves at
    the complete structure, polished from the standard solve."""
    out = {}
    for bits in (128, 256, 512):
        out[bits] = []
        for name, low in solved.items():
            tri = cf.load_fixture(name)
            start = solve_complete(tri, bits, initial=low.shapes)
            with mp.workprec(bits + 30):
                for cusp in range(len(tri.cusps)):
                    rows = system_jacobian(completeness_system(tri, cusp), list(start.shapes.z))
                    out[bits].append((f"{name}.{cusp}", rows))
    return out


def _phase_distance(v, w):
    """min over unit phases u of max |u v_i - w_i|."""
    inner = sum(mp.conj(a) * b for a, b in zip(v, w))
    u = inner / abs(inner)
    return max(abs(u * a - b) for a, b in zip(v, w))


def _largest_unit_entry(vector) -> int:
    """The index of the largest modulus of a unit vector, ties (within an
    absolute 2^-40) to the lowest: the oracle's pin rule."""
    best = 0
    for i in range(1, len(vector)):
        if abs(vector[i]) > abs(vector[best]) + mp.mpf(2) ** -40:
            best = i
    return best


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_numerical_kernel_matches_the_svd(bits, completeness_rows):
    # oracle: mpmath's SVD of each completeness Jacobian, cut as the
    # kernel check cuts, gives the same rank, the same pin by the largest
    # entry of its unit kernel vector, and that vector up to a phase
    for label, rows in completeness_rows[bits]:
        with mp.workprec(bits + 30):
            x, kept = numerical_kernel(rows, bits)
            _, S, V = mp.svd_c(mp.matrix(rows))
            svals = [S[i] for i in range(S.rows)]
            cut = max(svals) * mp.mpf(2) ** (-bits // 4)
            svd_rank = sum(s > cut for s in svals)
            n = len(rows[0])
            assert len(kept) == svd_rank == n - 1, label
            svd_vec = [mp.conj(V[n - 1, j]) for j in range(n)]
            assert curve_pin(rows, bits)[0] == _largest_unit_entry(svd_vec), label
            x = [blockform.to_mpc(v) for v in x]
            norm = mp.sqrt(sum(abs(v) ** 2 for v in x))
            unit = [v / norm for v in x]
            assert _phase_distance(unit, svd_vec) < mp.mpf(2) ** (10 - bits), label


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_curve_pin_keeps_a_square_nonsingular_system(bits, completeness_rows):
    # curve_pin keeps n_tet - 1 of the n_tet + 1 rows, in their order; the
    # square pinned solve on them succeeds, and its velocity lies in the
    # kernel of every row, kept or dropped
    for label, rows in completeness_rows[bits]:
        with mp.workprec(bits + 30):
            n = len(rows[0])
            pin, kept = curve_pin(rows, bits)
            assert len(kept) == n - 1 and kept == tuple(sorted(kept)), label
            dz = curve_velocity([rows[i] for i in kept], pin)[0]
            big = max(abs(v) for row in rows for v in row)
            size = max(abs(v) for v in dz)
            for row in rows:
                assert abs(sum(a * c for a, c in zip(row, dz))) <= mp.mpf(2) ** (20 - bits) * big * size, label


def _rounded_curves(trace_starts, bits):
    """(label, Jacobian rows) of every completeness curve at the 512-bit
    complete structure rounded to `bits`, at bits + 30."""
    for tri, start in trace_starts[512]:
        for cusp in range(len(tri.cusps)):
            z = [mp.mpc(v) for v in start.shapes.z]
            yield f"{tri.name}.{cusp}", system_jacobian(completeness_system(tri, cusp), z)


def test_curve_pin_decides_each_curve_alike_at_every_precision(trace_starts):
    # equal moduli (berge's four regular tetrahedra) tie, and ties go to
    # the first entry: the 512-bit complete structure, rounded to each
    # precision from 9 bits up, takes one pin per curve wherever the kernel
    # check decides it, and from 24 bits up it decides every curve.  The
    # kept rows are the 512-bit ones from 11 bits up; at 9 and 10 bits the
    # rounding of the working precision, 39 and 40 bits, splits equal
    # squares by more than the 2^-39 tie, and berge c keeps rows (0, 1, 4)
    decisions = {}
    for bits in (*range(9, 24), 24, 32, 48, 64, 96, 128, 256, 512):
        with mp.workprec(bits + 30):
            for label, rows in _rounded_curves(trace_starts, bits):
                try:
                    decisions.setdefault(label, {})[bits] = curve_pin(rows, bits)
                except KernelDimensionError:
                    assert bits < 24, (label, bits)
    assert len(decisions) == 6
    for label, decided in decisions.items():
        assert {pin for pin, _ in decided.values()} == {decided[512][0]}, (label, decided)
        assert {d for bits, d in decided.items() if bits >= 11} == {decided[512]}, label


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_curve_pin_decides_nothing_below_5_bits(trace_starts, bits):
    # the cut is half the largest entry, so no pivot reaches 4 times it
    with mp.workprec(bits + 30):
        for label, rows in _rounded_curves(trace_starts, bits):
            with pytest.raises(KernelDimensionError, match="undecided at the rank cut"):
                curve_pin(rows, bits)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_kernel_of_random_rank_r_products(r):
    # a seeded 7x6 complex product of a 7xr and an rx6 factor has rank r;
    # the kernel check decides r = 5, whose kernel vector A maps to
    # 2^-(p-20) max|A_ij| |x|, and refuses the wider kernels of r = 3, 4
    rng = random.Random(r)
    with mp.workprec(PRECISION + 30):
        def factor(m, n):
            return [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                    for _ in range(m)]
        left, right = factor(7, r), factor(r, 6)
        rows = [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(6)]
                for row in left]
        if r < 5:
            for check in (numerical_kernel, curve_pin):
                with pytest.raises(KernelDimensionError,
                                   match=rf"kernel dimension {6 - r} at the complete structure "
                                         r"\(expected 1\)"):
                    check(rows, PRECISION)
            return
        x, kept = numerical_kernel(rows, PRECISION)
        assert len(kept) == r and kept == tuple(sorted(kept))
        assert curve_pin(rows, PRECISION)[1] == kept
        x = [blockform.to_mpc(v) for v in x]
        assert 1 in x
        big = max(abs(v) for row in rows for v in row)
        norm = mp.sqrt(sum(abs(c) ** 2 for c in x))
        image = mp.sqrt(sum(abs(sum(a * c for a, c in zip(row, x))) ** 2 for row in rows))
        assert image <= mp.mpf(2) ** (20 - PRECISION) * big * norm


@pytest.mark.parametrize("last, dimension, rank", [
    (8, 1, 5), (2, None, None), (1, None, None), (mp.mpf(1) / 3, None, None), (0.125, 2, 4)])
def test_numerical_kernel_takes_only_clean_decisions(last, dimension, rank):
    # diag(1, 1, 1, 1, last * cut, 0) with the cut 2^(-p // 4) of max|A| = 1:
    # a pivot at least 4 cut or a stopping entry at most cut/4 is a clean
    # decision, anything between is refused with the numbers behind it
    with mp.workprec(PRECISION + 30):
        cut = mp.mpf(2) ** (-PRECISION // 4)
        diagonal = [1, 1, 1, 1, last * cut, 0]
        rows = [[mp.mpc(d if i == j else 0) for j in range(6)] for i, d in enumerate(diagonal)]
        if dimension is None:
            with pytest.raises(KernelDimensionError, match="undecided at the rank cut") as err:
                numerical_kernel(rows, PRECISION)
            assert "pivots 1.0, 1.0, 1.0, 1.0" in str(err.value)
            assert f"cut {mp.nstr(cut, 5)}" in str(err.value)
        elif dimension == 1:
            x, kept = numerical_kernel(rows, PRECISION)
            assert len(kept) == rank and [blockform.to_mpc(v) for v in x] == [0] * 5 + [1]
        else:
            # a clean decision, but on a kernel too wide for a curve
            with pytest.raises(KernelDimensionError,
                               match=f"kernel dimension {dimension} at the complete"):
                numerical_kernel(rows, PRECISION)


def test_elimination_alone_decides_every_curve(monkeypatch, solved):
    # no SVD anywhere: from 20 bits up the elimination decides every
    # completeness curve of every fixture with rank n-1, and screen and
    # trace finish; nearer the cut (whitehead at 12 bits, 622 at 16) the
    # rank decision is refused rather than guessed.  The screen's outcomes
    # hold across precisions: at 128, 256 and 512 bits every report has
    # the same verdict, and every cusp the same field, minimal polynomial,
    # isolation verdict, order and pin
    from cuspforge.screen import RIGID_NOT_ISOLATED, ScreenOptions, resolve_input, screen

    def refuse(*args, **kwargs):
        raise AssertionError("mp.svd_c called")

    monkeypatch.setattr(mp, "svd_c", refuse)
    names = ["whitehead", "622", "berge"]
    outcomes = []
    for bits in (128, 256, 512):
        reports = screen([resolve_input(name) for name in names],
                         ScreenOptions(precision_bits=bits))
        assert [r.verdict for r in reports] == [RIGID_NOT_ISOLATED] * 3
        assert all(c.isolation.not_isolated for r in reports for c in r.cusps)
        outcomes.append([(r.manifold, r.verdict, [
            (c.name, c.field.to_jsonable(), c.minpoly.coefficients, c.isolation.verdict,
             c.isolation.order, c.isolation.pin_index) for c in r.cusps]) for r in reports])
    assert outcomes[0] == outcomes[1] == outcomes[2]
    for name in names:
        tri = cf.load_fixture(name)
        start = solve_complete(tri, 512, initial=solved[name].shapes)
        for cusp in range(len(tri.cusps)):
            samples = trace_completeness_curve(tri, cusp, n_points=2, precision_bits=512,
                                               start=start)
            assert len(samples) == 3

    def jacobians(name, bits):
        tri = cf.load_fixture(name)
        start = solve_complete(tri, bits)
        assert start.success
        for cusp in range(len(tri.cusps)):
            with mp.workprec(bits + 30):
                yield tri, system_jacobian(completeness_system(tri, cusp), list(start.shapes.z))

    for bits in (20, 32, 64, 128, 256, 512):
        for name in names:
            for tri, rows in jacobians(name, bits):
                assert len(curve_pin(rows, bits)[1]) == tri.n_tet - 1, (name, bits)
    for name, bits in [("whitehead", 12), ("622", 16)]:
        for tri, rows in jacobians(name, bits):
            with pytest.raises(KernelDimensionError, match="undecided at the rank cut"):
                curve_pin(rows, bits)
