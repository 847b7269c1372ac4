"""The factoring behind `algdep`, held against sympy.

`irreducible_factors` must give exactly the factors `sympy.factor_list`
gives, and `distinct_degrees` exactly the degrees that
`sympy.polys.galoistools.gf_ddf_zassenhaus` gives.  `algdep` must return
what the loop that reduces the whole lattice and hands every reduced row
to `sympy.factor_list` returns with the same 2p confirmation, wherever that
loop confirms a relation: `reference_algdep` below is that loop.

`lll_pauses` must give every pause of Cohen's integral LLL
(`cohen_lll.cohen_lll_pauses`) bit for bit, and take only the decisions
whose float margin is thin on exact integers (`numberlab._cohen_step`).
"""

import random

import pytest
import sympy
from mpmath import mp
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_from_int_poly, gf_monic, gf_sqf_p

import cuspforge as cf
from cuspforge import numberlab
from cuspforge.numberlab import (
    DEGREE_TEST_PRIMES,
    MinPoly,
    _irreducible,
    _primitive,
    algdep,
    distinct_degrees,
    irreducible_factors,
    lll,
    lll_pauses,
    relation_lattice,
)
from cuspforge.solver import doubled_structure, solve_complete, solve_filled

from cohen_lll import cohen_lll_pauses

X = sympy.Symbol("X")
FILL_NS = [n for n in range(-5, 6) if n]


def reference_algdep(x, max_degree: int, precision_bits: int = 256) -> MinPoly | None:
    """The whole lattice reduced, every reduced row factored by sympy, and a
    factor confirmed as in `algdep`: |F(x)| < 2^(-1.5 p) at 2p bits."""
    n = max_degree
    with mp.workprec(2 * precision_bits):
        x = mp.mpc(x)
        reduced = lll(relation_lattice(x, n, precision_bits))

        threshold = mp.mpf(2) ** int(-1.5 * precision_bits)
        X = sympy.Symbol("X")
        best = None
        for row in reduced:
            coeffs = row[: n + 1]     # coefficient of x^i at index i
            if all(c == 0 for c in coeffs):
                continue
            poly = sympy.Poly(list(reversed(coeffs)), X)
            for factor, _ in sympy.factor_list(poly)[1]:
                fc = [int(c) for c in reversed(factor.all_coeffs())]
                if fc[-1] < 0:
                    fc = [-c for c in fc]
                residual = abs(mp.polyval(fc[::-1], x))
                if residual >= threshold:
                    continue
                height = max(abs(c) for c in fc)
                key = (len(fc) - 1, height, tuple(fc))
                if best is None or key < best[0]:
                    best = (key, tuple(fc), residual)
        if best is None:
            return None
        _, coeffs, residual = best
        return MinPoly(coefficients=coeffs, residual=residual,
                       height=max(abs(c) for c in coeffs))


def sympy_factors(f) -> set:
    """Primitive factors of f by `sympy.factor_list`, positive leading
    coefficient, constant term first."""
    out = set()
    for g, _ in sympy.factor_list(sympy.Poly(f[::-1], X))[1]:
        c = [int(v) for v in reversed(g.all_coeffs())]
        out.add(tuple(-v for v in c) if c[-1] < 0 else tuple(c))
    return out


def multiply(*polys):
    out = [1]
    for f in polys:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def random_poly(rng, degree, bits=40):
    """Constant term first, nonzero constant and leading coefficients."""
    return ([rng.choice([-1, 1]) * rng.randrange(1, 2 ** bits)]
            + [rng.randrange(-2 ** bits, 2 ** bits) for _ in range(degree - 1)]
            + [rng.randrange(1, 2 ** bits)])


def factor_cases(seed=14):
    """(label, polynomial) of every kind the factoring must get right."""
    rng = random.Random(seed)
    cases = []
    for degree in range(2, 13):
        cases.append(("irreducible", random_poly(rng, degree)))
    for _ in range(6):
        parts = [random_poly(rng, rng.randint(1, 4), bits=8) for _ in range(rng.randint(2, 3))]
        cases.append(("product", multiply(*parts)))
    for _ in range(4):
        f, g = random_poly(rng, rng.randint(1, 3), 8), random_poly(rng, rng.randint(1, 3), 8)
        cases.append(("repeated", multiply(f, f, g)))
        cases.append(("repeated", multiply(f, f, f)))
        cases.append(("content", [6 * c for c in multiply(f, g)]))
        cases.append(("negative leading", [-c for c in multiply(f, g)]))
        cases.append(("zero constant", multiply([0, 1], f, g)))
        cases.append(("zero constant", multiply([0, 0, 1], f)))
    cases += [("degree 0", [5]), ("degree 0", [-3]), ("degree 1", [3, -6]),
              ("degree 1", [-7, -2]), ("degree 1", [0, 4])]
    return cases


@pytest.mark.parametrize("label, f", factor_cases())
def test_factors_equal_sympy_factor_list(label, f):
    assert {tuple(g) for g in irreducible_factors([f])} == sympy_factors(f), label


def test_known_factors_in_either_order_give_sympy_factors():
    # rows that share factors, passed in both orders: each factor comes out
    # once, whichever row gave it first, and every row's factors are there
    rng = random.Random(5)
    for _ in range(8):
        f, g = random_poly(rng, 3, 8), random_poly(rng, 3, 8)
        h = random_poly(rng, 2, 8)
        rows = [f, g, multiply(f, g, h), multiply(g, g, [0, 1])]
        expected = set().union(*map(sympy_factors, rows))
        for order in (rows, rows[::-1], [g, f] + rows[2:]):
            found = [tuple(c) for c in irreducible_factors(order)]
            assert len(found) == len(set(found))
            assert set(found) == expected


def test_a_reducible_row_and_a_row_sharing_its_factor_give_sympy_factors():
    # f*g goes to sympy.factor_list; f*h (h irreducible of degree 3) does
    # too, and f comes out once
    rng = random.Random(6)
    f, g = random_poly(rng, 2, 8), random_poly(rng, 2, 8)
    h = [1, 1, 0, 1]                   # x^3 + x + 1, irreducible
    rows = [multiply(f, g), multiply(f, h)]
    expected = set().union(*map(sympy_factors, rows))
    assert {tuple(c) for c in irreducible_factors(rows)} == expected


def sympy_degrees(f, p):
    """Factor degrees of f mod p by gf_ddf_zassenhaus, or None where
    `distinct_degrees` must refuse: p divides the leading coefficient, or
    f is not squarefree mod p."""
    g = gf_from_int_poly(f[::-1], p)
    if len(g) != len(f) or not gf_sqf_p(g, p, ZZ):
        return None
    _, g = gf_monic(g, p, ZZ)
    return sorted(d for h, d in gf_ddf_zassenhaus(g, p, ZZ) for _ in range((len(h) - 1) // d))


@pytest.mark.parametrize("p", DEGREE_TEST_PRIMES)
def test_degree_pattern_equals_sympy(p):
    rng = random.Random(p)
    for degree in range(1, 13):
        for _ in range(3):
            f = random_poly(rng, degree)
            assert distinct_degrees(f, p) == sympy_degrees(f, p), f
        # a square modulo p: g^2 h + p k
        g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
        h = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        gg = multiply(g, g, h)
        f = [c + p * rng.randrange(-1000, 1000) for c in gg[:-1]] + [gg[-1]]
        assert distinct_degrees(f, p) is None is sympy_degrees(f, p), f
        # leading coefficient divisible by p
        f = random_poly(rng, degree)
        f[-1] *= p
        assert distinct_degrees(f, p) is None is sympy_degrees(f, p), f


def test_generic_polynomial_times_linear_is_never_irreducible():
    # a random degree-12 polynomial is irreducible with Galois group S_12
    # almost surely, so the degree test proves it irreducible; times a
    # linear factor, every prime's pattern has a root and the test never
    # may claim irreducibility
    rng = random.Random(12)
    for _ in range(4):
        f = random_poly(rng, 12)
        assert len(sympy_factors(f)) == 1
        assert _irreducible(f)
        for linear in ([-rng.randrange(1, 50), 1], [3, 2], [0, 1], [-5, 7]):
            product = multiply(f, linear)
            assert not _irreducible(product)
            factors = {tuple(c) for c in irreducible_factors([product])}
            assert factors == sympy_factors(product) and len(factors) == 2


@pytest.fixture(scope="module")
def algdep_values():
    """{bits: [(label, value)]}: whitehead c1 in each (1, n) filling of c2,
    n = -5..5 without 0, solved as `fill` solves them; every fixture cusp
    parameter at the complete structure; pi/3 + i e/5.  Each value is taken
    at 2p, on the structure polished at twice the precision, as `algdep`
    needs it."""
    out = {}
    for bits in (128, 256, 512):
        values = []
        with mp.workprec(bits + 30):
            for name in ("whitehead", "622", "berge"):
                tri = cf.load_fixture(name)
                complete = solve_complete(tri, bits, seed=0)
                doubled = doubled_structure(tri, complete)
                with mp.workprec(2 * bits + 30):
                    values += [(f"{name} {c.name}", cf.evaluate_cusp_parameter(
                        cf.cusp_parameter(tri, c), doubled.shapes)) for c in tri.cusps]
                if name == "whitehead":
                    for n in FILL_NS:
                        filling = [None, (1, n)]
                        filled = solve_filled(tri, filling, bits)
                        doubled = doubled_structure(tri, filled)
                        with mp.workprec(2 * bits + 30):
                            values.append((f"whitehead(1,{n})", cf.evaluate_cusp_parameter(
                                cf.cusp_parameter(tri, tri.cusps[0]), doubled.shapes)))
        with mp.workprec(2 * bits + 30):
            values.append(("pi/3 + i e/5", mp.pi / 3 + mp.mpc(0, 1) * mp.e / 5))
        out[bits] = values
    return out


def same(a: MinPoly | None, b: MinPoly | None) -> bool:
    if a is None or b is None:
        return a is b
    return (a.coefficients, a.height, repr(a.residual)) == (b.coefficients, b.height,
                                                             repr(b.residual))


@pytest.fixture(scope="module")
def minimal_polynomials(algdep_values):
    """{label: coefficients} of every value but pi/3 + i e/5, at 512 bits."""
    with mp.workprec(512 + 30):
        return {label: algdep(value, 12, 512).coefficients
                for label, value in algdep_values[512] if not label.startswith("pi")}


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_algdep_matches_the_factor_every_row_loop(algdep_values, minimal_polynomials, bits):
    # wherever the whole-lattice loop confirms a relation, the paused run
    # confirms the same one; where only the paused run does, its lattice of
    # lower degree found the 512-bit minimal polynomial
    only_algdep = []
    for label, value in algdep_values[bits]:
        for max_degree in (8, 12):
            with mp.workprec(bits + 30):
                found = algdep(value, max_degree, bits)
                expected = reference_algdep(value, max_degree, bits)
            if expected is not None:
                assert same(found, expected), (label, max_degree)
            elif found is not None:
                assert found.coefficients == minimal_polynomials[label], (label, max_degree)
                only_algdep.append((label, max_degree, found.degree))
    assert only_algdep == ([("whitehead(1,-5)", 12, 9)] if bits == 128 else [])


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_transcendental_value_is_never_recognized(algdep_values, bits):
    # no relation of degree 8 or 12 passes the 2p test for pi/3 + i e/5;
    # without it, a short vector of the reduced lattice passed 2^(-0.6 p)
    label, value = algdep_values[bits][-1]
    assert label == "pi/3 + i e/5"
    for max_degree in (8, 12):
        with mp.workprec(bits + 30):
            assert algdep(value, max_degree, bits) is None


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_lll_pauses_are_the_reductions_of_the_smaller_lattices(algdep_values, bits):
    # the basis at pause r is the LLL of rows 0..r alone, and lll is the run
    # carried to its last pause
    for label, value in algdep_values[bits]:
        if not label.startswith("whitehead("):
            continue
        with mp.workprec(2 * bits):
            rows = list(relation_lattice(mp.mpc(value), 12, bits))
        pauses = [[list(row) for row in basis] for basis in lll_pauses(iter(rows))]
        assert len(pauses) == len(rows)
        assert pauses[-1] == lll(rows)
        for r in (4, 8):
            assert pauses[r] == lll(rows[: r + 1]), (label, r)


def all_pauses(reduction, rows) -> list:
    return [[list(row) for row in basis] for basis in reduction(iter(rows))]


def tie_lattices(cases=200, seed=32):
    """Seeded lattices (I | V) of dimension 2 to 13 with one to three
    columns V of entries at most 5 in modulus: full of exact ties
    |mu| = 1/2 and of Lovasz tests met with equality."""
    rng = random.Random(seed)
    for _ in range(cases):
        n, bound, width = rng.randint(2, 13), rng.randint(1, 5), rng.randint(1, 3)
        yield [[int(i == j) for j in range(n)] + [rng.randint(-bound, bound) for _ in range(width)]
               for i in range(n)]


def counted_exact_steps(monkeypatch) -> list:
    """The row k of every decision `lll_pauses` takes on exact integers
    from now on."""
    calls = []
    step = numberlab._cohen_step

    def counting(b, G, k):
        calls.append(k)
        return step(b, G, k)

    monkeypatch.setattr(numberlab, "_cohen_step", counting)
    return calls


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_lll_pauses_are_cohens_bit_for_bit(algdep_values, bits):
    # every pause of the 13-row lattice of every fixture cusp, every (1, n)
    # fill value and pi/3 + i e/5
    for label, value in algdep_values[bits]:
        with mp.workprec(2 * bits):
            rows = list(relation_lattice(mp.mpc(value), 12, bits))
        assert all_pauses(lll_pauses, rows) == all_pauses(cohen_lll_pauses, rows), label


def test_lll_pauses_are_cohens_bit_for_bit_at_ties():
    for rows in tie_lattices():
        assert all_pauses(lll_pauses, rows) == all_pauses(cohen_lll_pauses, rows), rows


def test_lll_pauses_are_cohens_bit_for_bit_across_scales():
    # squared norms 2^2400 apart from row to row: at the top row's scale a
    # |mu| near 1/2 against a bottom row is below the normal doubles, so
    # such a decision is taken on exact integers
    for seed in range(3):
        rng = random.Random(seed)
        rows = [[int(i == j) for j in range(5)] + [rng.getrandbits(1200) << 600 * i for _ in range(3)]
                for i in range(5)]
        assert all_pauses(lll_pauses, rows) == all_pauses(cohen_lll_pauses, rows), seed


def test_exact_decisions_are_the_thin_ones(algdep_values, monkeypatch):
    # the tie lattices take many decisions on exact integers; the ten
    # 256-bit fill lattices take two, both on the flat (1, -1) filling's
    # lattice: neither every decision exact nor none
    calls = counted_exact_steps(monkeypatch)
    for rows in tie_lattices():
        lll(rows)
    assert len(calls) == 1102
    calls.clear()
    fills = [(label, v) for label, v in algdep_values[256] if label.startswith("whitehead(")]
    assert len(fills) == 10
    exact = {}
    for label, value in fills:
        with mp.workprec(512):
            lll(relation_lattice(mp.mpc(value), 12, 256))
        exact[label], calls[:] = len(calls), []
    assert exact == {label: 2 if label == "whitehead(1,-1)" else 0 for label, _ in fills}


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_row_filter_passes_only_rows_holding_the_minimal_polynomial(
        algdep_values, minimal_polynomials, bits, monkeypatch):
    # at every pause below the minimal polynomial m's degree the row filter
    # skips each reduced row, so nothing is factored there; at the pause of
    # m's degree every row it passes is +-m itself, which the degree test
    # settles.  A value whose relation is not found has every row of every
    # pause skipped
    passed = []
    factors = numberlab.irreducible_factors

    def recording(polys):
        passed.append(list(polys))
        return factors(passed[-1])

    monkeypatch.setattr(numberlab, "irreducible_factors", recording)
    for label, value in algdep_values[bits]:
        if label not in minimal_polynomials:
            continue
        m = list(minimal_polynomials[label])
        passed.clear()
        with mp.workprec(bits + 30):
            found = algdep(value, 12, bits)
        if found is None:
            assert (label, bits) == ("whitehead(1,5)", 128)
            assert len(passed) == 13 and not any(passed)
            continue
        assert len(passed) == len(m), label
        assert not any(passed[:-1]), label
        assert passed[-1] and all(_primitive(g) == m for g in passed[-1]), label


def counted_factor_list(monkeypatch) -> list:
    """The argument tuples of every `sympy.factor_list` call from now on."""
    calls = []
    factor_list = sympy.factor_list

    def counting(*args, **kwargs):
        calls.append(args)
        return factor_list(*args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", counting)
    return calls


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_algdep_never_calls_factor_list(algdep_values, bits, monkeypatch):
    # on every fixture cusp, every (1, n) fill value and pi/3 + i e/5, at
    # max-degree 8 and 12, each row that reaches the factoring is settled by
    # the degree test (sympy.factor_list ran on all 130 rows of a 256-bit
    # fill pass when every row was factored).  Every value is recognized
    # but pi/3 + i e/5, the (1, -5) and (1, 5) fills at max-degree 8 (their
    # fields have degree 9 and 10) and the 128-bit (1, 5) fill
    calls = counted_factor_list(monkeypatch)
    missed = []
    for label, value in algdep_values[bits]:
        for max_degree in (8, 12):
            with mp.workprec(bits + 30):
                if algdep(value, max_degree, bits) is None:
                    missed.append((label, max_degree))
    assert calls == []
    assert missed == [("whitehead(1,-5)", 8), ("whitehead(1,5)", 8),
                      *[("whitehead(1,5)", 12)] * (bits == 128),
                      ("pi/3 + i e/5", 8), ("pi/3 + i e/5", 12)]
