"""Integer-relation recovery, lattice reduction and field classification.

Expected minimal polynomials come from direct expansion: (x + 2)^2 = -4
gives x^2 + 4x + 8 for -2 + 2i, and (x - 1)^2 = -3 gives x^2 - 2x + 4 for
1 + sqrt(-3).  The round-trip suite draws random quadratic irrationalities
and reconstructs their defining quadratics by expansion as the oracle.

The integral LLL is checked against the definition of a reduced basis,
by an exact rational Gram-Schmidt, and against sympy's rational LLL on
lattices small enough for sympy's float rounding to be exact.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from sympy.polys.matrices import DomainMatrix

import cuspforge as cf
from cuspforge.numberlab import (
    EISENSTEIN,
    GAUSSIAN,
    NON_QUADRATIC,
    RATIONAL,
    REAL_QUADRATIC,
    UNRECOGNIZED,
    TRIAL_DIVISION_LIMIT,
    AlgdepError,
    FieldClass,
    MinPoly,
    algdep,
    classify_field,
    lll,
    relation_lattice,
    rigid_compatible,
    squarefree_part,
)
from cuspforge.solver import doubled_structure, solve_complete, solve_filled

from conftest import PRECISION


def test_algdep_gaussian_example():
    poly = algdep(mp.mpc(-2, 2), 8, PRECISION)
    assert poly.coefficients == (8, 4, 1)
    assert poly.residual < mp.mpf(2) ** int(-0.6 * PRECISION)


def test_algdep_eisenstein_example():
    with mp.workprec(2 * PRECISION):
        poly = algdep(1 + mp.sqrt(-3), 8, PRECISION)
    assert poly.coefficients == (4, -2, 1)


def test_algdep_rational_example():
    poly = algdep(mp.mpf(1) / 2, 8, PRECISION)
    assert poly.coefficients == (-1, 2)
    assert classify_field(poly).kind == RATIONAL


def test_algdep_requires_minimum_precision():
    with pytest.raises(AlgdepError):
        algdep(mp.mpc(1, 1), 4, precision_bits=64)


def test_algdep_beyond_the_range_of_a_double():
    # row i holds round(2^204.8) 2^(600 i): Gram entries up to about 2^5200
    with mp.workprec(2 * 256 + 30):
        poly = algdep(mp.mpf(2) ** 600, 4, 256)
    assert poly.coefficients == (-2 ** 600, 1)


def test_algdep_at_1024_bits():
    # whitehead c1 at the complete structure, taken at 2048 bits: lattice
    # entries of 819 bits and Gram entries of about 1640
    tri = cf.load_fixture("whitehead")
    with mp.workprec(1024 + 30):
        doubled = doubled_structure(tri, solve_complete(tri, 1024))
        with mp.workprec(2048 + 30):
            value = cf.evaluate_cusp_parameter(cf.cusp_parameter(tri, tri.cusps[0]),
                                               doubled.shapes)
        assert algdep(value, 12, 1024).coefficients == (8, 4, 1)


def test_algdep_transcendental_returns_none():
    assert algdep(mp.pi + mp.mpc(0, 1) * mp.e, 6, PRECISION) is None
    assert classify_field(None).kind == UNRECOGNIZED


def quadratic_minpoly(a: Fraction, b: Fraction, d: int):
    """Defining quadratic of a + b sqrt(-d) by direct expansion:
    (x - a)^2 + b^2 d = 0, cleared to primitive integer form."""
    # x^2 - 2a x + (a^2 + b^2 d)
    c2 = Fraction(1)
    c1 = -2 * a
    c0 = a * a + b * b * d
    den = math.lcm(c1.denominator, c0.denominator)
    coeffs = [int(c0 * den), int(c1 * den), int(den)]
    g = math.gcd(math.gcd(abs(coeffs[0]), abs(coeffs[1])), abs(coeffs[2]))
    return tuple(c // g for c in coeffs)


def test_round_trip_random_quadratics():
    rng = random.Random(12)
    for _ in range(60):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if b == 0:
            continue
        d = rng.choice([1, 2, 3, 7, 11])
        with mp.workprec(2 * PRECISION):
            x = mp.mpf(a.numerator) / a.denominator + (
                mp.mpf(b.numerator) / b.denominator) * mp.sqrt(-d)
        poly = algdep(x, 6, PRECISION)
        assert poly is not None
        assert poly.coefficients == quadratic_minpoly(a, b, d)
        fc = classify_field(poly)
        assert fc.detail == -squarefree_part(d)


def test_precision_monotonicity():
    # the doubled-precision run sees the value to full accuracy
    rng = random.Random(77)
    with mp.workprec(2 * 512):
        for _ in range(10):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            d = rng.choice([1, 2, 3, 7, 11])
            x = mp.mpf(a.numerator) / a.denominator + (
                mp.mpf(b.numerator) / b.denominator) * mp.sqrt(-d)
            lo = algdep(x, 6, 256)
            hi = algdep(x, 6, 512)
            assert lo.coefficients == hi.coefficients


def test_classification_rules():
    assert classify_field(MinPoly((8, 4, 1), mp.mpf(0), 8)).kind == GAUSSIAN
    assert classify_field(MinPoly((4, -2, 1), mp.mpf(0), 4)).kind == EISENSTEIN
    fc = classify_field(MinPoly((-1, -1, 0, 1), mp.mpf(0), 1))
    assert fc.kind == NON_QUADRATIC and fc.detail == 3
    fc = classify_field(MinPoly((2, 0, 1), mp.mpf(0), 2))  # x^2 + 2
    assert fc.kind == "OtherImaginaryQuadratic" and fc.detail == -2
    fc = classify_field(MinPoly((-2, 0, 1), mp.mpf(0), 2))  # x^2 - 2
    assert fc.kind == REAL_QUADRATIC and fc.warning


def test_rigid_compatibility():
    assert rigid_compatible(FieldClass(EISENSTEIN, -3))
    assert rigid_compatible(FieldClass(GAUSSIAN, -1))
    assert not rigid_compatible(FieldClass(NON_QUADRATIC, 3))
    assert not rigid_compatible(FieldClass(REAL_QUADRATIC, 5))
    assert not rigid_compatible(FieldClass(UNRECOGNIZED))
    # a rational value is conservatively compatible but carries a warning
    fc = classify_field(MinPoly((-2, 1), mp.mpf(0), 2))
    assert rigid_compatible(fc) and fc.warning


def test_squarefree_part():
    assert squarefree_part(-16) == -1
    assert squarefree_part(-12) == -3
    assert squarefree_part(-48) == -3
    assert squarefree_part(0) == 0
    assert squarefree_part(18) == 2


def sympy_squarefree_part(d: int) -> int:
    s = 1 if d > 0 else -1
    for prime, exp in sympy.factorint(abs(d)).items():
        s *= prime ** (exp % 2)
    return s


def test_squarefree_part_matches_factorint_on_small_d():
    assert all(squarefree_part(d) == sympy_squarefree_part(d)
               for d in range(-3000, 3000) if d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-10 ** 12, 10 ** 12).filter(bool))
def test_squarefree_part_matches_factorint(d):
    assert squarefree_part(d) == sympy_squarefree_part(d)


def test_squarefree_part_beyond_the_trial_limit():
    # both cofactors have no prime below the limit and exceed its square:
    # a perfect square settles the first, sympy.factorint the second, the
    # product of two primes that it splits in about a millisecond
    m61, m31, q = 2 ** 61 - 1, 2 ** 31 - 1, 10 ** 9 + 7
    assert sympy.factorint(m31 * q) == {m31: 1, q: 1} and min(m31, q) > TRIAL_DIVISION_LIMIT
    assert m31 * q > TRIAL_DIVISION_LIMIT ** 2
    assert squarefree_part(-3 * m61 ** 2) == -3 == sympy_squarefree_part(-3 * m61 ** 2)
    assert squarefree_part(-m31 * q) == -m31 * q == sympy_squarefree_part(-m31 * q)


SMALL_COEFFICIENT = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(SMALL_COEFFICIENT, min_size=1, max_size=13),
       st.integers(1, 10 ** 6) | st.just(1))
def test_minpoly_str_matches_sympy(low, lead):
    # primitive, with positive leading coefficient, as algdep returns them
    coefficients = tuple(low[:-1]) + (lead,)
    if len(coefficients) > 1:
        g = math.gcd(*coefficients)
        coefficients = tuple(c // g for c in coefficients)
    X = sympy.Symbol("x")
    expected = str(sum(c * X ** i for i, c in enumerate(coefficients)))
    assert str(MinPoly(coefficients, mp.mpf(0), max(map(abs, coefficients)))) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(SMALL_COEFFICIENT, min_size=1, max_size=6))
def test_minpoly_str_matches_sympy_for_any_signs(coefficients):
    # including a negative leading term, zero, and sympy's rule that puts a
    # positive constant before a single negative term (1 - x)
    X = sympy.Symbol("x")
    expected = str(sum(c * X ** i for i, c in enumerate(coefficients)))
    assert str(MinPoly(tuple(coefficients), mp.mpf(0), 0)) == expected


NO_SYMPY_SCRIPT = """
import contextlib, io, sys
import cuspforge.screen
assert "sympy" not in sys.modules, "import"
for bits in ("128", "256", "512"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cuspforge.screen.main(sys.argv[1:] + ["--format", "json",
                                                     "--precision-bits", bits])
    assert code == 0, bits
    assert "sympy" not in sys.modules, bits
"""


def test_import_and_screen_leave_sympy_unloaded():
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, "screen", "whitehead", "622",
                           "berge"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_fill_leaves_sympy_unloaded():
    # at 128, 256 and 512 bits every (1, n) fill value is settled by the row
    # filter and the degree test: the reduction stops at the minimal
    # polynomial's degree, and each row that passes there is the minimal
    # polynomial, irreducible by its degree 1 or by the degree test
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, "fill", "whitehead",
                           "--cusp", "1", "--n-range=-5:5"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_modular_action_invariance():
    # the field class of a Gaussian-rational value is unchanged by integer
    # Mobius transformations of determinant 1 with entries of height <= 3
    rng = random.Random(5)
    tau = mp.mpc(-2, 2)
    count = 0
    while count < 12:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 1:
            continue
        with mp.workprec(2 * PRECISION):
            moved = (a * tau + b) / (c * tau + d)
        assert classify_field(algdep(moved, 8, PRECISION)).kind == GAUSSIAN
        count += 1


def test_minpoly_serialization():
    poly = algdep(mp.mpc(-2, 2), 8, PRECISION)
    assert poly.to_jsonable() == [8, 4, 1]     # constant term first
    assert str(poly) == "x**2 + 4*x + 8"


def gram_schmidt(rows):
    """Exact Gram-Schmidt coefficients mu[i][j] (j < i) and squared norms."""
    star, mu, norms = [], [], []
    for row in rows:
        v = [Fraction(c) for c in row]
        coeffs = []
        for s_j, n_j in zip(star, norms):
            m = sum(a * b for a, b in zip(row, s_j)) / n_j
            coeffs.append(m)
            v = [a - m * b for a, b in zip(v, s_j)]
        star.append(v)
        mu.append(coeffs)
        norms.append(sum(a * a for a in v))
    return mu, norms


def assert_lll_reduced(rows):
    mu, norms = gram_schmidt(rows)
    assert all(abs(m) <= Fraction(1, 2) for coeffs in mu for m in coeffs)
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(rows)))


@pytest.fixture(scope="module")
def cusp_values():
    """Every fixture cusp's parameter, and whitehead c1's in the (1, 5)
    filling of c2, at 128, 256 and 512 bits."""
    values = {}
    for bits in (128, 256, 512):
        found = []
        with mp.workprec(bits + 30):
            for name in ("whitehead", "622", "berge"):
                tri = cf.load_fixture(name)
                complete = solve_complete(tri, bits)
                found += [cf.evaluate_cusp_parameter(cf.cusp_parameter(tri, c), complete.shapes)
                          for c in tri.cusps]
            tri = cf.load_fixture("whitehead")
            filled = solve_filled(tri, ["complete", (1, 5)], bits)
            found.append(cf.evaluate_cusp_parameter(cf.cusp_parameter(tri, tri.cusps[0]),
                                                    filled.shapes))
        values[bits] = found
    return values


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_lll_reduces_algdep_lattices(cusp_values, bits):
    # the relation lattice is (I | v), so a basis of the same lattice is
    # T (I | v) with T its first block, integral and of determinant +-1
    for value in cusp_values[bits]:
        rows = list(relation_lattice(mp.mpc(value), 12, bits))
        reduced = lll(rows)
        assert_lll_reduced(reduced)
        T = [row[:len(rows)] for row in reduced]
        assert [[sum(t * r[j] for t, r in zip(t_row, rows)) for j in range(len(rows[0]))]
                for t_row in T] == reduced
        assert abs(sympy.Matrix(T).det()) == 1


def test_lll_matches_sympy_on_small_lattices():
    # entries below 2^16 keep sympy's rounding through a float exact; the
    # tiny ones give ties mu = +-1/2, where the rounding rule shows
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 9)
        bound = rng.choice([5, 2 ** 16])
        rows = [[int(i == j) for j in range(n)]
                + [rng.randrange(-bound, bound) for _ in range(2)] for i in range(n)]
        reduced = lll(rows)
        expected = DomainMatrix([[sympy.ZZ(c) for c in row] for row in rows],
                                (n, n + 2), sympy.ZZ).lll().to_Matrix().tolist()
        assert reduced == [[int(c) for c in row] for row in expected]


GROUND_TYPES_SCRIPT = """
import json
from mpmath import mp
from sympy.external.gmpy import GROUND_TYPES
import cuspforge as cf
from cuspforge.numberlab import algdep
from cuspforge.solver import doubled_structure, solve_complete, solve_filled

bits = 512
with mp.workprec(bits + 30):
    found = {"ground_types": GROUND_TYPES}
    tri = cf.load_fixture("622")
    doubled = doubled_structure(tri, solve_complete(tri, bits))
    with mp.workprec(2 * bits + 30):
        found["622"] = [list(algdep(cf.evaluate_cusp_parameter(cf.cusp_parameter(tri, c),
                                                               doubled.shapes), 12, bits)
                             .coefficients) for c in tri.cusps]
    tri = cf.load_fixture("whitehead")
    filling = ["complete", (1, 5)]
    filled = solve_filled(tri, filling, bits)
    doubled = doubled_structure(tri, filled)
    with mp.workprec(2 * bits + 30):
        found["whitehead(1,5)"] = list(algdep(cf.evaluate_cusp_parameter(
            cf.cusp_parameter(tri, tri.cusps[0]), doubled.shapes), 12, bits).coefficients)
print(json.dumps(found))
"""


def test_algdep_at_512_bits_with_pure_python_ground_types():
    proc = subprocess.run(
        [sys.executable, "-c", GROUND_TYPES_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "SYMPY_GROUND_TYPES": "python"}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["ground_types"] == "python"
    assert found["622"] == [[4, -2, 1], [4, -2, 1]]
    filled = found["whitehead(1,5)"]
    assert len(filled) == 11 and filled[0] == 8313856
