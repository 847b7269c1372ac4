"""Recognition of algebraic numbers and cusp-field classification.

`algdep` recovers an integer minimal polynomial approximately satisfied by
a high-precision complex value, by lattice reduction of the rows
(e_i, round(2^(0.8 p) Re x^i), round(2^(0.8 p) Im x^i)), i = 0..n, at
working precision p.  The candidates are the irreducible factors of the
reduced rows, and one is accepted when its residual |P(x)| is below
2^(-0.6 p); ties break by (degree, height, lexicographic coefficients).
The residual is evaluated at 2p bits, but from the same p-bit x, so it
only re-reads what the lattice saw: it is no independent confirmation.

`irreducible_factors` finds the factors of the rows in three steps, and
factors in full only what the first two leave:

1. each row, lowest degree first, is divided exactly by the factors that
   earlier rows gave, and made primitive;
2. a cofactor of degree at most 1 is its own factor, and so is one that
   Musser's degree test (J. ACM 22, 1975) proves irreducible: the degree
   of a factor over the integers is a sum of the degrees of the factors
   modulo every prime p in DEGREE_TEST_PRIMES that keeps the cofactor
   squarefree and its degree, and when no such sum common to all those
   primes lies strictly between 0 and the degree, the cofactor is
   irreducible.  The degrees modulo p come from distinct-degree
   factorisation (Cohen, Alg. 3.4.3);
3. the remaining cofactors are divided again once every row has passed
   step 1.  Two that are still open meet in their integer gcd, which is
   tested like a row: rows that are all m times a small cofactor give m
   this way.  Only what is still unsettled goes to `sympy.factor_list`,
   the one place sympy is imported at run time.

Every row thus gives exactly the factors `sympy.factor_list` would give.
Given the point x and the residual bound 2^t, as `algdep` gives them,
each step first drops a cofactor g that no factor F with |F(x)| < 2^t can
divide.  For g = F G the Landau-Mignotte bound (Mignotte, Math. Comp.
1974) gives |G|_1 <= 2^deg g |g|_2, so such an F forces
|g(x)| < 2^t 2^deg g |g|_2 max(1, |x|)^deg g.  |g(x)| is taken in floats,
with an allowance of |g|_1 max(1, |x|)^deg g 2^-40 for their rounding, so
a dropped cofactor beats the bound by more than any rounding can explain.

The reduction is `lll`, the integral LLL of Cohen (A Course in
Computational Algebraic Number Theory, Alg. 2.6.7) with delta = 3/4.  It
computes on Python integers only, with no floats and no rationals: the
Gram-Schmidt data are kept exactly as the Gram determinants d_i and the
coefficients lambda_ij = d_j mu_ij, and every division is exact.  Its
rounding is floor(mu + 1/2), so it returns the basis that a rational LLL
with the same rounding (sympy's, when its rounding is exact) returns.

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


def lll(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer rows, by Cohen's integral LLL.

    d[j + 1] is the Gram determinant of rows 0..j (d[0] = 1) and
    lam[k][j] = d[j + 1] * mu_kj, so every quantity is an integer.  Rows
    past kmax have not been reached yet; their Gram-Schmidt data are
    computed when they are.
    """
    b = [list(r) for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def reduce(k, l):
        # size reduction when |mu_kl| > 1/2, by q = floor(mu_kl + 1/2)
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk ** 2:
            # Lovasz condition fails: swap rows k-1 and k, update exactly
            b[k - 1], b[k] = b[k], b[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            B = (d[k - 1] * d[k + 1] + lk ** 2) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


def relation_lattice(x, max_degree: int, precision_bits: int) -> list[list[int]]:
    """The rows (e_i, round(2^(0.8 p) Re x^i), round(2^(0.8 p) Im x^i)),
    i = 0..max_degree, that `algdep` reduces; the identity block makes them
    linearly independent."""
    n = max_degree
    with mp.workprec(2 * precision_bits):
        scale = mp.mpf(2) ** int(0.8 * precision_bits)
        rows = []
        power = mp.mpc(1)
        for i in range(n + 1):
            rows.append([int(j == i) for j in range(n + 1)]
                        + [int(mp.nint(scale * power.real)),
                           int(mp.nint(scale * power.imag))])
            power *= x
    return rows


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


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g over the integers, or None when g does not divide f."""
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + len(g) - 1], g[-1])
        if m:
            return None
        q[i] = c
        for j, gj in enumerate(g):
            r[i + j] -= c * gj
    return q if q and not any(r) else None


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


def _cofactor(f: list[int], known: list[list[int]]) -> list[int]:
    """The primitive part of f after exact division by every polynomial in
    known, as often as each divides."""
    for g in known:
        while (q := _exact_quotient(f, g)) is not None:
            f = q
    return _primitive(f)


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """The remainder of lc(g)^k f by g over the integers, for the k that
    keeps every step integral; [] when g divides f over the rationals."""
    r = list(f)
    while len(r) >= len(g):
        c, k = r[-1], len(r) - len(g)
        r = [g[-1] * a for a in r[:-1]]
        for j, gj in enumerate(g[:-1]):
            r[k + j] -= c * gj
        _trim(r)
    return r


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """The gcd over the integers of two integer polynomials with nonzero
    leading coefficients, itself with positive leading coefficient: the gcd
    of their contents times the last nonzero member of their primitive
    pseudo-remainder sequence."""
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    f, g = _primitive(f), _primitive(g)
    while len(g) > 1:
        f, g = g, _pseudo_remainder(f, g)
        if not g:
            return [content * c for c in f]
        g = _primitive(g)
    return [content]


def _may_hold_small_factor(g: list[int], x: complex, log2_bound: int) -> bool:
    """False only when no factor F of g has |F(x)| < 2^log2_bound, by the
    Landau-Mignotte test of the module docstring.

    Both sides are divided by |g|_1 max(1, |x|)^deg g, and for |x| > 1 the
    value is the reversed polynomial's at 1/x, so Horner runs on floats of
    modulus at most 1 and cannot overflow.  A point that is not finite
    leaves every g in."""
    if not cmath.isfinite(x):
        return True
    norm_1 = sum(map(abs, g))
    norm_2 = math.isqrt(sum(c * c for c in g)) + 1
    coefficients, y = (g, 1 / x) if abs(x) > 1 else (g[::-1], x)
    value = 0j
    for c in coefficients:
        value = value * y + c / norm_1
    bound = 2.0 ** (log2_bound + len(g) - 1) * (norm_2 / norm_1) + 2.0 ** -40
    return not abs(value) > bound


def irreducible_factors(polys, x: complex | None = None,
                        log2_bound: int = 0) -> list[list[int]]:
    """The distinct irreducible factors of nonzero integer polynomials
    (constant term first), each primitive with positive leading coefficient:
    the factors `sympy.factor_list` gives for each polynomial, found in
    three steps.

    1. Lowest degree first, each polynomial is divided exactly by every
       factor found so far, as often as it divides, and made primitive.
    2. A cofactor of degree 0 adds nothing.  One of degree 1, or one the
       degree test proves irreducible, is a new factor.
    3. Any other cofactor waits until every polynomial has had step 1, so
       that factors found later can divide it.  Each one still open then
       meets every earlier open one in `_gcd`, and the gcd goes through
       steps 1 and 2 as a polynomial of its own.  What is left after a
       last division is handed to `sympy.factor_list`.

    Given the point x, only the factors F that may have
    |F(x)| < 2^log2_bound are sought: every cofactor that
    `_may_hold_small_factor` rules out is dropped before steps 2 and 3.
    """
    known = []

    def left_open(f, *failed):
        # f's cofactor when it is still to be factored; a cofactor among
        # `failed` has failed the degree test already
        g = _cofactor(f, known)
        if len(g) < 2 or x is not None and not _may_hold_small_factor(g, x, log2_bound):
            return None
        if len(g) == 2 or g not in failed and _irreducible(g):
            known.append(g)
            return None
        return g

    deferred = [g for f in sorted(polys, key=len) if (g := left_open(f)) is not None]
    still_open = []
    for f in deferred:
        if (g := left_open(f, f)) is not None:
            for h in still_open:
                left_open(_gcd(g, h), g, h)
            still_open.append(g)
    for f in still_open:
        if (g := left_open(f, f)) is not None:
            import sympy

            poly = sympy.Poly(g[::-1], sympy.Symbol("X"))
            known += [_primitive([int(c) for c in reversed(h.all_coeffs())])
                      for h, _ in sympy.factor_list(poly)[1]]
    return known


def algdep(x, max_degree: int, precision_bits: int = 256) -> MinPoly | None:
    """Integer minimal-polynomial candidate for x, or None if no candidate
    passes the residual test.

    The candidates are the irreducible factors of the reduced rows, by
    `irreducible_factors` at the point x: each row is divided by the
    factors found so far, a cofactor that the Landau-Mignotte bound rules
    out is dropped, the mod-p degree test proves what is left irreducible
    where it can, two open cofactors are split by their gcd, and
    `sympy.factor_list` factors only the rest.  A candidate F passes when
    |F(x)|, evaluated at 2p bits, is below 2^(-0.6 p); x is known to about
    p bits only, so the extra digits confirm nothing.  Ties break by
    (degree, height, coefficients).

    Requires precision_bits >= 128 and max_degree >= 1, else raises
    AlgdepError.  The returned polynomial is primitive with positive
    leading coefficient and irreducible over the rationals.
    """
    if precision_bits < 128:
        raise AlgdepError("algdep needs at least 128 bits of precision")
    if max_degree < 1:
        raise AlgdepError("max_degree must be >= 1")
    n = max_degree
    log2_threshold = int(-0.6 * precision_bits)
    with mp.workprec(2 * precision_bits):
        x = mp.mpc(x)
        reduced = lll(relation_lattice(x, n, precision_bits))
        # coefficient of x^i at index i
        candidates = irreducible_factors(filter(None, (_trim(row[: n + 1]) for row in reduced)),
                                         complex(x), log2_threshold)

        threshold = mp.mpf(2) ** log2_threshold
        powers = [x ** i for i in range(n + 1)]
        best = None
        for fc in candidates:
            residual = abs(sum(c * powers[i] for i, c in enumerate(fc)))
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
