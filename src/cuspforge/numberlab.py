"""Recognition of algebraic numbers and cusp-field classification.

`algdep` recovers an integer minimal polynomial approximately satisfied by
a complex value x known to 2p bits, for the working precision p, by
lattice reduction of the rows
(e_i, round(2^(0.8 p) Re x^i), round(2^(0.8 p) Im x^i)), i = 0..n.  The
candidates are the irreducible factors of the reduced rows, and one is
accepted when its residual |P(x)|, evaluated at 2p bits, is below
2^(-1.5 p); ties break by (degree, height, lexicographic coefficients).
The lattice sees 0.8p bits of x, so by the Gaussian heuristic a random
short vector of degree d leaves a residual near 2^(-0.8 p (1 - 2/(d + 1))),
which for d >= 8 is below 2^(-0.6 p) but far above 2^(-1.5 p); a true
relation reaches about 2^(-2 p).  The digits of x past p are what confirm
a relation.

The reduction is one run, paused after each row: the basis at the pause
after row r is the reduction of the degree-r lattice, and `algdep` stops
at the first pause that confirms a factor, so the run goes no further than
the minimal polynomial's degree.  A reduced row g reaches the factoring
only if its value at x leaves room for a factor F with |F(x)| below
2^(-1.5 p).  For g = F G the Landau-Mignotte bound (Mignotte, Math. Comp.
1974) gives |G|_1 <= 2^deg g |g|_2, so such an F forces
|g(x)| < 2^(-1.5 p) 2^deg g |g|_2 max(1, |x|)^deg g.  g(x) is read off the
integer powers round(2^(2p) x^i), which resolve |g(x)| down to about
2^(-2p) |g|_1, so the test needs no mpmath.  For the fixtures' cusp and
fill values no row below the minimal polynomial's degree passes it, and
every row that passes at that degree is the minimal polynomial up to sign.

`irreducible_factors` factors the rows that pass.  The primitive part of a
row is its own factor when it has degree 1 or when Musser's degree test
(J. ACM 22, 1975) proves it irreducible: the degree of a factor over the
integers is a sum of the degrees of the factors modulo every prime p in
DEGREE_TEST_PRIMES that keeps the row squarefree and its degree, and when
no such sum common to all those primes lies strictly between 0 and the
degree, the row is irreducible.  The degrees modulo p come from
distinct-degree factorisation (Cohen, Alg. 3.4.3).  A row the test does
not settle goes to `sympy.factor_list`, the one place sympy is imported at
run time, so every row gives exactly the factors `sympy.factor_list` would
give.

The reduction is `lll_pauses`, and `lll` is its run to the end.  It takes
the rows one at a time and makes the decisions and row operations of
Cohen's integral LLL (A Course in Computational Algebraic Number Theory,
Alg. 2.6.7) with delta = 3/4: reduce row k by row k-1 by
q = floor(mu + 1/2) when |mu| > 1/2, run the Lovasz test, then swap rows
k-1 and k or reduce row k by rows k-2..0.  So it returns the basis that a
rational LLL with the same rounding (sympy's, when its rounding is exact)
returns.  As in L^2 (Nguyen and Stehle, SIAM J. Comput. 2009), the basis
and its Gram matrix stay exact integers while the Gram-Schmidt
coefficients mu and squared norms B are doubles, computed for row k from
its exact Gram row by the Cholesky recurrence.  Each row whose squared
norm exceeds 2^900 has a power-of-two scale, so that no scaled product
overflows.  A decision needs mu_(k,k-1) and B_k, which reductions by rows
below k-1 leave unchanged; they are read off a copy of row k size-reduced
by every lower row, where the doubles are accurate (L^2's lazy size
reduction).  A pass over a nearly reduced row, one whose multiples are
all below 2^8 and whose squared norm is below 2^12 B_k, updates the
doubles in place; after any other pass that moves the copy they are
recomputed from its exact Gram row.  A decision whose float margin is
below 2^-20 (an exact tie |mu| = 1/2, a Lovasz test met with equality, a
lower |mu| near 1/2 when row k stays, or a |mu| against a row whose scale
is 2^1000 below row k's, which the doubles cannot resolve) is taken on
exact integers: the Gram determinants and lambda_ij of Cohen's
algorithm, from the Gram matrix.  Each basis row is packed into one
integer, with slots wide enough for every entry at a pause, so a row
operation is one multiply-add.

Success is evidence, not proof: a recovered polynomial certifies nothing
about the input, and a failure may only mean insufficient precision.
Callers must treat a miss as "unrecognized", never as "transcendental".

`classify_field` reads the cusp field off the minimal polynomial: for
quadratics, the squarefree part of the discriminant decides between the
two rigid-compatible imaginary quadratic fields (-1 for the Gaussian
field, -3 for the Eisenstein one) and everything else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

import mpmath
from mpmath import mp

GAUSSIAN = "GaussianRational"            # Q(i)
EISENSTEIN = "EisensteinRational"        # Q(sqrt(-3))
OTHER_IMAGINARY_QUADRATIC = "OtherImaginaryQuadratic"
REAL_QUADRATIC = "RealQuadratic"
NON_QUADRATIC = "NonQuadratic"
RATIONAL = "Rational"
UNRECOGNIZED = "Unrecognized"


class AlgdepError(ValueError):
    pass


@dataclass(frozen=True)
class MinPoly:
    """Primitive irreducible integer polynomial, constant term first."""

    coefficients: tuple[int, ...]
    residual: mpmath.mpf
    height: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_jsonable(self) -> list[int]:
        return list(self.coefficients)

    def __str__(self) -> str:
        """The polynomial in x as sympy prints it: highest power first, except
        that a positive constant goes before a single negative term."""
        terms = [(i, c) for i, c in enumerate(self.coefficients) if c][::-1]
        if len(terms) == 2 and terms[1][0] == 0 and terms[1][1] > 0 > terms[0][1]:
            terms.reverse()
        out = ""
        for i, c in terms:
            power = "x" if i == 1 else f"x**{i}"
            body = str(abs(c)) if i == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
            out += sign + body
        return out or "0"


@dataclass(frozen=True)
class FieldClass:
    kind: str
    detail: int | None = None   # squarefree discriminant part, or degree
    warning: str | None = None

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "warning": self.warning}

    def __str__(self) -> str:
        if self.kind == OTHER_IMAGINARY_QUADRATIC:
            return f"Q(sqrt({self.detail}))"
        if self.kind == REAL_QUADRATIC:
            return f"Q(sqrt({self.detail})) [real]"
        if self.kind == NON_QUADRATIC:
            return f"degree-{self.detail} field"
        if self.kind == GAUSSIAN:
            return "Q(i)"
        if self.kind == EISENSTEIN:
            return "Q(sqrt(-3))"
        return self.kind


# A decision whose float margin is below THIN is taken on exact integers
# (`_cohen_step`).  On the fixture and fill lattices at 128 to 512 bits
# the doubles a decision reads are within 2^-40 of the exact values: mu
# absolutely, the Lovasz test relative to B_k + (3/4 - mu^2) B_(k-1).
THIN = 2.0 ** -20
_HALF, _NEAR_HALF = .5 + THIN, .5 - THIN
# One float pass of the size reduction stands, with no recomputation, when
# every multiple it rounds is below LOOSE and the row's squared norm is
# below LOOSE_NORM B_k: the doubles were then read off a nearly reduced row.
LOOSE, LOOSE_NORM = 2.0 ** 8, 2.0 ** 12


def _scaled(x: int, e: int) -> float:
    """The int x times 2^-e (e >= 0) as a float."""
    return math.ldexp(x, -e) if x.bit_length() < 1000 else x / (1 << e)


def _scale(norm: int) -> int:
    """The scale s of a row of squared norm `norm`: 0 below 2^900, else the
    s that brings norm 2^-2s near 2^900, so that no scaled product
    overflows."""
    n = norm.bit_length()
    return n - 900 >> 1 if n > 900 else 0


def _gram_schmidt(S, M, R, g, s):
    """(m, r) of a vector v of scale s from its exact Gram row g against
    basis rows 0..k-1 and itself, given those rows' scales S, coefficients
    M and norms R: m[j] = mu_vj 2^(S[j] - s) and r = |v*|^2 2^-2s, by the
    recurrence r_vj = <v, b_j> - sum_i mu_ji r_vi in scaled doubles."""
    k = len(g) - 1
    m, rs = [], []
    for j in range(k):
        e = s + S[j]
        x = (_scaled(g[j], e) if e else g[j]) - math.fsum(map(mul, M[j], rs))
        rs.append(x)
        m.append(x / R[j])
    return m, (_scaled(g[k], 2 * s) if s else g[k]) - math.fsum(map(mul, m, rs))


def _reduced_copy(G, S, M, R, k, Q):
    """Row k size-reduced by rows k-1..0 in doubles, by the lazy size
    reduction of L^2: from the top down, round every |mu| above 1/2 and
    update the lower ones.  The multiples add up in Q, so the copy is
    b_k - sum Q[j] b_j; the basis is not touched.  A pass that is not
    loose (see LOOSE) is applied to a copy of the exact Gram row and the
    doubles are recomputed from it, until a pass moves nothing.

    Returns (s, m, r, thin): the copy's doubles at scale s, and bit j of
    thin set when |mu_j| lies within THIN of 1/2."""
    g = G[k]
    while True:
        s = _scale(g[k])
        m, r = _gram_schmidt(S, M, R, g, s)
        moves, thin, loose = [], 0, True
        for j in range(k - 1, -1, -1):
            e = s - S[j]
            try:
                t = math.ldexp(m[j], e) if e else m[j]
            except OverflowError:           # |mu| beyond a float: its top 53 bits
                f, x = math.frexp(m[j])
                X, y, loose = int(math.ldexp(f, 53)) << x + e - 53, m[j], False
            else:
                # past e = 1000 a |mu| near 1/2 has left the normal floats
                if -_HALF <= t <= _HALF:
                    if t > _NEAR_HALF or t < -_NEAR_HALF or e > 1000:
                        thin |= 1 << j
                    continue
                loose = loose and -LOOSE < t < LOOSE and e <= 1000
                X = round(t)
                y = math.ldexp(X, -e) if e else X
                if abs(t - X) > _NEAR_HALF:
                    thin |= 1 << j
            m[j] -= y
            for i, mu in enumerate(M[j]):
                m[i] -= y * mu
            moves.append((j, X))
            Q[j] += X
        if not moves or loose and (_scaled(g[k], 2 * s) if s else g[k]) < LOOSE_NORM * r:
            return s, m, r, thin
        if g is G[k]:
            g = g[:]
        for j, X in moves:
            gj = G[j]
            g[k] += X * (X * gj[j] - 2 * g[j])
            for i in range(k):
                g[i] -= X * (gj[i] if i <= j else G[i][j])


def _sub(b, G, k, l, q):
    """Row k less q times row l (l < k), in the packed basis b and in its
    Gram matrix G, kept as the rows G[i][:i + 1]."""
    b[k] -= q * b[l]
    gk, gl = G[k], G[l]
    gk[k] += q * (q * gl[l] - 2 * gk[l])
    for j in range(k):
        gk[j] -= q * (gl[j] if j <= l else G[j][l])
    for g in G[k + 1:]:
        g[k] -= q * g[l]


def _swap(b, G, k, q):
    """Row k less q times row k-1, then rows k-1 and k exchanged, in the
    packed basis b and in its Gram matrix G (as `_sub` keeps it)."""
    gp, gk = G[k - 1], G[k]
    rows = G[k + 1:]
    if q:
        b[k] -= q * b[k - 1]
        c = gk[k - 1] - q * gp[k - 1]
        gk = [x - q * y for x, y in zip(gk[:k - 1], gp)] + [c, gk[k] - q * (gk[k - 1] + c)]
        for g in rows:
            g[k - 1], g[k] = g[k] - q * g[k - 1], g[k - 1]
    else:
        for g in rows:
            g[k - 1], g[k] = g[k], g[k - 1]
    b[k - 1], b[k] = b[k], b[k - 1]
    G[k - 1], G[k] = gk[:k - 1] + gk[k:], gp[:k - 1] + [gk[k - 1], gp[k - 1]]


def _cohen_step(b, G, k) -> bool:
    """Cohen's step at row k on exact integers, for a decision whose float
    margin is thin: the Gram determinants d_i and lam_ij = d_(j+1) mu_ij
    of rows 0..k from G, the reduction by row k-1 and the Lovasz test, and
    the reductions by rows k-2..0 when it passes.  Returns whether rows k-1
    and k are to be swapped."""
    d, lam = [1], []
    for i in range(k + 1):
        lam.append([])
        for j in range(i + 1):
            u = G[i][j]
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            (lam[i] if j < i else d).append(u)
    lk = lam[k]

    def reduce(l):
        # size reduction when |mu_kl| > 1/2, by q = floor(mu_kl + 1/2)
        if 2 * abs(lk[l]) > d[l + 1]:
            q = (2 * lk[l] + d[l + 1]) // (2 * d[l + 1])
            _sub(b, G, k, l, q)
            lk[l] -= q * d[l + 1]
            for i in range(l):
                lk[i] -= q * lam[l][i]

    reduce(k - 1)
    if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk[k - 1] ** 2:
        return True
    for l in range(k - 2, -1, -1):
        reduce(l)
    return False


def _pack(v, w: int) -> int:
    """The row v as the one integer sum v[c] 2^(w c), so that a row operation
    is one multiply-add; `_unpack` reads it back while every entry is below
    2^(w - 1) in modulus."""
    p = 0
    for x in reversed(v):
        p = (p << w) + x
    return p


def _unpack(P, w: int, n: int) -> list[list[int]]:
    """The rows of n entries packed by `_pack` in P, for w a multiple of 8."""
    half, size = 1 << w - 1, w >> 3
    offset = _pack([half] * n, w)
    rows = []
    for p in P:
        data = (p + offset).to_bytes(size * n, "little")
        rows.append([int.from_bytes(data[i:i + size], "little") - half
                     for i in range(0, size * n, size)])
    return rows


def lll_pauses(rows):
    """LLL (delta = 3/4) on linearly independent integer rows, taken one at
    a time from the iterable `rows`, with the decisions and row operations
    of Cohen's integral LLL (module docstring): a pause, a new list of the
    basis rows, is yielded each time rows 0..r are reduced, for r = 0, 1,
    ...  The run never looks at row r + 1 before that pause, so the basis
    there is the LLL-reduced basis of rows 0..r alone.

    The basis rows, on the columns where some row is nonzero, are packed
    into integers (`_pack`) and its Gram matrix G is exact; rows 0..k-1
    below the current row k carry their Gram-Schmidt data in scaled
    doubles (S, M, R).  Row k is decided on a size-reduced
    copy (`_reduced_copy`); after a swap the copy, now row k-1 reduced by
    the rows below it, carries over to the next step, and when row k stays
    its multiples are applied to the basis.  At a pause the basis is
    size-reduced and no |b_j*|^2 exceeds the largest squared norm N in G
    when the last row came, so every entry is below sqrt((1 + n/4) N) for
    n rows: the slot width w is set from N and n.
    """
    P, b, G, S, M, R, cols, w = [], [], [], [], [], [], [], 0
    for row in rows:
        row = list(row)
        cols += [c for c, x in enumerate(row) if x and c not in cols]
        v = [row[c] for c in cols]
        G.append([sum(map(mul, v, u)) for u in b] + [sum(map(mul, v, v))])
        need = (max(g[-1] for g in G).bit_length() // 2 + len(G).bit_length() + 11) & ~7
        if need > w:
            w, P = need, [_pack(u, need) for u in b]
        P.append(_pack(v, w))
        k, copy = len(P) - 1, None
        while 0 < k < len(P):
            while len(M) < k:
                j = len(M)
                S.append(_scale(G[j][j]))
                m, r = _gram_schmidt(S, M, R, G[j], S[j])
                M.append(m), R.append(r)
            if copy:
                Q, s, m, r, thin = copy
                copy = None
            else:
                Q = [0] * k
                s, m, r, thin = _reduced_copy(G, S, M, R, k, Q)
            # the Lovasz test B_k >= (3/4 - a^2) B_(k-1) at the smaller of
            # the two rows' scales, a = mu_(k,k-1) after the reduction by
            # row k-1
            sk, rk = S[k - 1], R[k - 1]
            if s == sk:
                a = m[k - 1]
                lhs, rhs = r, (.75 - a * a) * rk
            else:
                a, d = math.ldexp(m[k - 1], s - sk), 2 * (sk - s)
                lhs, rhs = (r, math.ldexp((.75 - a * a) * rk, d)) if d < 0 else (
                    math.ldexp(r, -d), (.75 - a * a) * rk)
            if thin >> k - 1 or abs(lhs - rhs) < THIN * (lhs + rhs) or lhs >= rhs and thin:
                swap = _cohen_step(P, G, k)
                if swap:
                    _swap(P, G, k, 0)
            elif lhs >= rhs:
                swap = False                # row k becomes its copy
                for j in range(k - 1, -1, -1):
                    if Q[j]:
                        _sub(P, G, k, j, Q[j])
                S.append(s), M.append(m), R.append(r)
            else:
                swap = True
                _swap(P, G, k, Q[k - 1])
                if k > 1:
                    copy = Q[:k - 1], s, m[:k - 1], r + m[k - 1] * m[k - 1] * rk, thin
            if swap:
                del S[k - 1:], M[k - 1:], R[k - 1:]
                k = k - 1 or 1
            else:
                k += 1
        b, basis = _unpack(P, w, len(cols)), []
        for u in b:
            basis.append([0] * len(row))
            for c, x in zip(cols, u):
                basis[-1][c] = x
        yield basis


def lll(rows) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer rows: the last pause of `lll_pauses`, so the basis
    that Cohen's integral LLL returns."""
    b = []
    for b in lll_pauses(rows):
        pass
    return b


def relation_lattice(x, max_degree: int, precision_bits: int):
    """Yields the rows (e_i, round(2^(0.8 p) Re x^i), round(2^(0.8 p) Im x^i)),
    i = 0..max_degree, that `algdep` reduces, each computed at 2p bits when
    it is asked for; the identity block makes them linearly independent."""
    n = max_degree
    power = mp.mpc(1)
    for i in range(n + 1):
        with mp.workprec(2 * precision_bits):
            if i:
                power *= x
            scaled = power * mp.mpf(2) ** int(0.8 * precision_bits)
            row = ([int(j == i) for j in range(n + 1)]
                   + [int(mp.nint(scaled.real)), int(mp.nint(scaled.imag))])
        yield row


# The primes of the degree test.  They are small because the Frobenius
# rows mod p take p (deg - 1) steps; a random irreducible degree-12 row
# is settled after three or four of them.
DEGREE_TEST_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, with positive leading coefficient."""
    g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p); b[-1] is nonzero mod p."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = q[i - db] = a[i] * inv % p
        if c:
            a[i - db:i] = [u - c * v for u, v in zip(a[i - db:i], b)]
    return q, _trim([c % p for c in a[:db]])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b over GF(p); a is nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def distinct_degrees(f: list[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors modulo the prime p of the
    integer polynomial f (constant term first), ascending, by distinct-degree
    factorisation (Cohen, Alg. 3.4.3).  None when p divides the leading
    coefficient or f is not squarefree modulo p: there the degrees say
    nothing about the factors of f over the integers.

    The Frobenius rows are x^(p i) mod f, so h^p mod f is their combination
    with the coefficients of h, and x^(p^d) mod f takes d combinations.  The
    rows are Kronecker-packed integers, slots of B bits from the constant
    term up, built by multiplying by x one step at a time; slots are reduced
    mod p only when unpacked, and B leaves no room for a carry.
    """
    f = [c % p for c in f]
    n = len(f) - 1
    if f[-1] == 0 or len(_gcd_mod(f, _trim([i * c % p for i, c in enumerate(f)][1:]), p)) > 1:
        return None
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    B = (p ** 4 * n * n).bit_length()
    mask, top = (1 << B) - 1, n * B
    low = sum(-c % p << B * j for j, c in enumerate(f[:-1]))     # x^n mod f
    frobenius = [1]
    while len(frobenius) < n:
        power = frobenius[-1]
        for _ in range(p):
            power <<= B
            power = (power & (1 << top) - 1) + (power >> top) % p * low
        frobenius.append(power)
    degrees, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        acc = sum(c * row for c, row in zip(h, frobenius))
        h = [(acc >> B * j & mask) % p for j in range(n)]
        g = _gcd_mod(f, _trim([h[0], (h[1] - 1) % p] + h[2:]), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _divmod_mod(f, g, p)[0]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _irreducible(f: list[int]) -> bool:
    """True when the degree test (module docstring) proves the primitive f,
    of degree at least 2, irreducible.  Bit d of a mask is set when d is a
    possible factor degree."""
    both_ends = 1 | 1 << (len(f) - 1)
    possible = (1 << len(f)) - 1
    for p in DEGREE_TEST_PRIMES:
        degrees = distinct_degrees(f, p)
        if degrees is not None:
            sums = 1
            for d in degrees:
                sums |= sums << d
            possible &= sums
            if possible == both_ends:
                return True
    return False


def irreducible_factors(polys) -> list[list[int]]:
    """The distinct irreducible factors of nonzero integer polynomials
    (constant term first), each primitive with positive leading coefficient:
    the factors `sympy.factor_list` gives for each polynomial.  A primitive
    part of degree 1, or one the degree test (module docstring) proves
    irreducible, is its own factor; any other is handed to
    `sympy.factor_list`."""
    factors = []
    for f in polys:
        g = _primitive(f)
        if len(g) < 2:
            continue
        if len(g) == 2 or _irreducible(g):
            found = [g]
        else:
            import sympy

            poly = sympy.Poly(g[::-1], sympy.Symbol("X"))
            found = [_primitive([int(c) for c in reversed(h.all_coeffs())])
                     for h, _ in sympy.factor_list(poly)[1]]
        factors += [h for h in found if h not in factors]
    return factors


def _row_may_hold_small_factor(g: list[int], value: tuple[int, int], log2_scale: int,
                               x: complex, log2_bound: int) -> bool:
    """False only when the nonzero integer polynomial g (constant term
    first) has no factor F with |F(x)| < 2^log2_bound.

    `value` is sum g_i P_i for P_i = round(2^log2_scale x^i), the powers
    computed at log2_scale bits, so it is 2^log2_scale g(x) to within
    |g|_1 (1/sqrt(2) + 4 deg g max(1, |x|)^deg g): each P_i is off by its
    rounding, 1/sqrt(2), and by less than 4 i |x|^i for the i rounded
    products that made the power.  By the Landau-Mignotte bound of the
    module docstring, such an F forces
    |g(x)| < 2^log2_bound 2^deg g |g|_2 max(1, |x|)^deg g; that term is
    doubled, a margin for F(x) as `algdep` evaluates it.  The bound is
    taken in floats with a relative allowance of 2^-40 and compared as an
    integer; a point or a bound that is not finite keeps g."""
    if not cmath.isfinite(x):
        return True
    degree = len(g) - 1
    try:
        power = max(1.0, abs(x)) ** degree
        error = sum(map(abs, g)) * (2 ** -0.5 + 4 * degree * power)
        small = math.ldexp((math.isqrt(sum(c * c for c in g)) + 1) * power,
                           log2_scale + log2_bound + degree + 1)
        bound = int((error + small) * (1 + 2.0 ** -40)) + 1
    except OverflowError:
        return True
    re, im = value
    return re * re + im * im < bound * bound


def algdep(x, max_degree: int, precision_bits: int = 256) -> MinPoly | None:
    """Integer minimal-polynomial candidate for x, known to 2p bits, or None
    if no candidate is confirmed.

    One integral LLL (`lll_pauses`) runs on the rows of `relation_lattice`,
    built one at a time, and pauses each time rows 0..r are reduced, where
    its basis is the reduction of the degree-r lattice.  At each pause the
    rows not seen at an earlier one are tested.  A row's polynomial g is
    skipped when its value at x, taken on the powers of x rounded to 2p
    bits, rules out any factor F with |F(x)| < 2^(-1.5 p)
    (`_row_may_hold_small_factor`); the rest go to `irreducible_factors`.
    A factor F is confirmed when |F(x)|, evaluated at 2p bits, is below
    2^(-1.5 p): a true relation reaches about 2^(-2p) there, while a short
    vector that only fits the lattice's 0.8p bits of x stays far above.
    The first pause with a confirmed factor returns the smallest one by
    (degree, height, coefficients), so the reduction stops at the minimal
    polynomial's degree.

    Requires precision_bits >= 128 and max_degree >= 1, else raises
    AlgdepError.  The returned polynomial is primitive with positive
    leading coefficient and irreducible over the rationals.
    """
    check_algdep_arguments(max_degree, precision_bits)
    n, bits = max_degree, 2 * precision_bits
    log2_bound = int(-1.5 * precision_bits)
    with mp.workprec(bits):
        x = mp.mpc(x)
        threshold = mp.mpf(2) ** log2_bound
        scale, power = mp.mpf(2) ** bits, mp.mpc(1)
    point = complex(x)
    fixed = []                       # round(2^(2p) x^i) for the rows so far
    seen, refused = set(), set()
    for basis in lll_pauses(relation_lattice(x, n, precision_bits)):
        with mp.workprec(bits):
            fixed.append((int(mp.nint(scale * power.real)), int(mp.nint(scale * power.imag))))
            power *= x
        fresh = []
        for row in basis:
            key = tuple(row)
            if key in seen:
                continue
            seen.add(key)
            g = _trim(row[: len(fixed)])
            value = (sum(c * re for c, (re, _) in zip(g, fixed)),
                     sum(c * im for c, (_, im) in zip(g, fixed)))
            if _row_may_hold_small_factor(g, value, bits, point, log2_bound):
                fresh.append(g)
        best = None
        with mp.workprec(bits):
            for fc in irreducible_factors(fresh):
                key = (len(fc) - 1, max(map(abs, fc)), tuple(fc))
                if key in refused:
                    continue
                residual = abs(mp.polyval(fc[::-1], x))
                if residual >= threshold:
                    refused.add(key)
                elif best is None or key < best[0]:
                    best = (key, residual)
        if best is not None:
            (_, height, coeffs), residual = best
            return MinPoly(coefficients=coeffs, residual=residual, height=height)
    return None


def check_algdep_arguments(max_degree: int, precision_bits: int) -> None:
    """Raise AlgdepError unless precision_bits >= 128 and max_degree >= 1,
    as `algdep` requires."""
    if precision_bits < 128:
        raise AlgdepError("algdep needs at least 128 bits of precision")
    if max_degree < 1:
        raise AlgdepError("max_degree must be >= 1")


# Trial division in `squarefree_part` stops here; a cofactor with no prime
# below it is a prime, a square or handed to `sympy.factorint`.
TRIAL_DIVISION_LIMIT = 1 << 12


def squarefree_part(d: int) -> int:
    """d = m^2 * s with s squarefree; returns s (sign preserved).

    Trial division by 2 and the odd numbers below TRIAL_DIVISION_LIMIT
    keeps each prime's exponent parity, and stops early at the first
    divisor whose square exceeds what is left.  What is left is then 1, a
    prime (no smaller prime divides it, and it is below that divisor's
    square), a perfect square, or else factored by `sympy.factorint`; so s
    is exact for every d.
    """
    if d == 0:
        return 0
    s, r = (1 if d > 0 else -1), abs(d)
    p = 2
    while p < TRIAL_DIVISION_LIMIT and p * p <= r:
        odd = False
        while r % p == 0:
            r //= p
            odd = not odd
        if odd:
            s *= p
        p += 1 if p == 2 else 2
    if p * p > r:                     # r is 1 or a prime
        return s * r
    if math.isqrt(r) ** 2 == r:
        return s
    import sympy

    for prime, exp in sympy.factorint(r).items():
        if exp % 2:
            s *= prime
    return s


def classify_field(minpoly: MinPoly | None) -> FieldClass:
    """Field class of the number defined by a minimal polynomial."""
    if minpoly is None:
        return FieldClass(UNRECOGNIZED)
    deg = minpoly.degree
    if deg == 1:
        return FieldClass(RATIONAL, warning=(
            "rational value: geometrically impossible for a cusp parameter "
            "at a complete structure; treat as unresolved"))
    if deg == 2:
        c, b, a = minpoly.coefficients
        disc = b * b - 4 * a * c
        s = squarefree_part(disc)
        if s == -1:
            return FieldClass(GAUSSIAN, detail=-1)
        if s == -3:
            return FieldClass(EISENSTEIN, detail=-3)
        if s < 0:
            return FieldClass(OTHER_IMAGINARY_QUADRATIC, detail=s)
        return FieldClass(REAL_QUADRATIC, detail=s, warning=(
            "real quadratic value: geometrically impossible for a cusp "
            "parameter at a complete structure"))
    return FieldClass(NON_QUADRATIC, detail=deg)


def rigid_compatible(fc: FieldClass) -> bool:
    """True when the field class is consistent with the cusp covering a
    rigid Euclidean orbifold: Q(i), Q(sqrt(-3)), or (conservatively, with
    a warning) a rational value."""
    return fc.kind in (GAUSSIAN, EISENSTEIN, RATIONAL)
