"""Recognition of algebraic numbers and cusp-field classification.

`algdep` recovers an integer minimal polynomial approximately satisfied by
a high-precision complex value, by lattice reduction of the rows
(e_i, round(2^(0.8 p) Re x^i), round(2^(0.8 p) Im x^i)), i = 0..n, at
working precision p.  Candidates are accepted only when the residual
|P(x)|, re-evaluated at doubled precision, is below 2^(-0.6 p), and ties
break by (degree, height, lexicographic coefficients).

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

from dataclasses import dataclass

import mpmath
import sympy
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

    def __call__(self, x):
        total = mp.mpc(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def as_expr(self):
        X = sympy.Symbol("x")
        return sum(c * X ** i for i, c in enumerate(self.coefficients))

    def to_jsonable(self) -> list[int]:
        return list(self.coefficients)

    def __str__(self) -> str:
        return str(self.as_expr())


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


def algdep(x, max_degree: int, precision_bits: int = 256) -> MinPoly | None:
    """Integer minimal-polynomial candidate for x, or None if no candidate
    survives the doubled-precision residual check.

    Requires precision_bits >= 128 and max_degree >= 1, else raises
    AlgdepError.  The returned polynomial is primitive with positive
    leading coefficient and irreducible over the rationals.
    """
    if precision_bits < 128:
        raise AlgdepError("algdep needs at least 128 bits of precision")
    if max_degree < 1:
        raise AlgdepError("max_degree must be >= 1")
    n = max_degree
    with mp.workprec(2 * precision_bits):
        x = mp.mpc(x)
        reduced = lll(relation_lattice(x, n, precision_bits))

        threshold = mp.mpf(2) ** int(-0.6 * precision_bits)
        X = sympy.Symbol("X")
        best = None
        for row in reduced:
            coeffs = row[: n + 1]     # coefficient of x^i at index i
            if all(c == 0 for c in coeffs):
                continue
            poly = sympy.Poly(list(reversed(coeffs)), X)
            for factor, _ in sympy.factor_list(poly)[1]:
                fc = [int(c) for c in reversed(factor.all_coeffs())]
                residual = abs(sum(c * x ** i for i, c in enumerate(fc)))
                if residual >= threshold:
                    continue
                if fc[-1] < 0:
                    fc = [-c for c in fc]
                height = max(abs(c) for c in fc)
                key = (len(fc) - 1, height, tuple(fc))
                if best is None or key < best[0]:
                    best = (key, tuple(fc), residual)
        if best is None:
            return None
        _, coeffs, residual = best
        return MinPoly(coefficients=coeffs, residual=residual,
                       height=max(abs(c) for c in coeffs))


def squarefree_part(d: int) -> int:
    """d = m^2 * s with s squarefree; returns s (sign preserved)."""
    if d == 0:
        return 0
    s = 1 if d > 0 else -1
    for prime, exp in sympy.factorint(abs(d)).items():
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


def recognize(x, max_degree: int = 12, precision_bits: int = 256):
    """algdep + classify in one step; returns (MinPoly | None, FieldClass)."""
    mp_ = algdep(x, max_degree, precision_bits)
    return mp_, classify_field(mp_)
