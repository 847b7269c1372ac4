"""Recognition of algebraic numbers and cusp-field classification.

`algdep` recovers an integer minimal polynomial approximately satisfied by
a high-precision complex value, by LLL reduction of the lattice spanned by
{1, x, ..., x^n} with the real and imaginary embeddings scaled up by
2^(0.8 p) at working precision p.  Candidates are accepted only when the
residual |P(x)|, re-evaluated at doubled precision, is below 2^(-0.6 p),
and ties break by (degree, height, lexicographic coefficients).

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
from sympy import ZZ as _ZZ
from sympy.polys.matrices import DomainMatrix

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


def algdep(x, max_degree: int, precision_bits: int = 256) -> MinPoly | None:
    """Integer minimal-polynomial candidate for x, or None if no candidate
    survives the doubled-precision residual check.

    Requires precision_bits >= 128 and max_degree >= 1.  The returned
    polynomial is primitive with positive leading coefficient and
    irreducible over the rationals.  A failure inside the lattice
    reduction raises AlgdepError, which callers record like any miss.
    """
    if precision_bits < 128:
        raise AlgdepError("algdep needs at least 128 bits of precision")
    if max_degree < 1:
        raise AlgdepError("max_degree must be >= 1")
    n = max_degree
    with mp.workprec(2 * precision_bits):
        x = mp.mpc(x)
        scale = mp.mpf(2) ** int(0.8 * precision_bits)
        rows = []
        power = mp.mpc(1)
        for i in range(n + 1):
            rows.append(
                [_ZZ(1) if j == i else _ZZ(0) for j in range(n + 1)]
                + [_ZZ(int(mp.nint(scale * power.real))),
                   _ZZ(int(mp.nint(scale * power.imag)))]
            )
            power *= x
        lattice = DomainMatrix(rows, (n + 1, n + 3), _ZZ)
        try:
            reduced = lattice.lll().to_Matrix().tolist()
        except (ArithmeticError, AssertionError) as exc:
            raise AlgdepError(f"lattice reduction failed ({type(exc).__name__})") from exc

        threshold = mp.mpf(2) ** int(-0.6 * precision_bits)
        X = sympy.Symbol("X")
        best = None
        for row in reduced:
            coeffs = [int(c) for c in row[: n + 1]]     # coefficient of x^i at index i
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
