"""Exact arithmetic for holonomy functions on a deformation variety.

Every function this package manipulates on the shape variety is built from
the three corner parameters of an ideal tetrahedron with shape z:

    z,      zeta1(z) = 1/(1 - z),      zeta2(z) = (z - 1)/z.

All three are (up to sign) monomials in the two atoms z and (1 - z), so any
product of corner parameters is exactly a *signed monomial*

    +/- prod_i  z_i^{a_i} (1 - z_i)^{b_i},

and the translation functions are short integer combinations of such
monomials.  Working in this factored-atom ring keeps equality tests,
derivatives, and denominators exact: no multivariate gcd, no floating
simplification.

`SignedMonomial` is the multiplicative group element (dilation parts mu of
peripheral curves, edge equations).  `MonomialSum` is the additive closure
(translation parts tau, cleared equations, exact derivatives).  Evaluation
happens at a `ShapeAssignment`, a tuple of arbitrary-precision complex
shapes with a degeneracy guard keeping every coordinate away from {0, 1}.

Every numerical value in the package comes from one evaluator: `term_value`
computes one signed term and `sum_value` adds up a sum's terms, in the
scalar type of the point: mpmath at the working precision, or Python
complex for the solver's machine-precision stages.  Derivatives come from
the log gradient of a term (`log_gradient`): `sum_gradient` gives the
gradient of a sum as each term times its log gradient, and
`second_derivative_along` the closed-form second derivative of a sum
along a vector, so no derivative sum is built.

The evaluator works at a `Point`: the shapes, and at an mpmath point a
memo that forms each power z_i^k and (1 - z_i)^k, each log-derivative
entry and each term's product once per point.  A memoised value depends
only on the shape, the exponent and the precision the Point is made at,
never on which evaluation asked for it first, and every product keeps
its factor order, so every value is bit-identical to one computed on a
fresh Point.  The solver makes one Point per trial point; at an mpmath
point it evaluates its residual, then the values and Jacobian of the
step taken from it, then its tangent and, at a traced sample (which keeps
its Point), the cusp parameter, all from that one memo; a filling row's
principal logs are memoised there too (`Point.principal_log`), so the
residual and the step at a point log each dilation once.  A plain sequence
passed to the evaluator becomes a Point for the length of that call.  No
memo outlives its point.

At a Point whose shapes are all mpmath numbers, every evaluation, second
derivatives included, runs in the integer block form of `blockform`, and
no mpmath operator runs.

- The Point holds each z_i, and 1 - z_i formed from it, exactly.
- A power is built from two memoised powers and cut to the Point's width
  W = wp + wp // 16 bits, where wp is the working precision when the
  Point is made; a negative power is the inverse of the positive one.
- A term's product, with coefficient 1, is formed once per Point
  (`Point.term_form`).  A sum adds its terms' forms exactly.
- One memo of log-derivative entries a_i/z_i^k - b_i/(1 - z_i)^k, formed
  from the memoised inverse powers, serves the log gradient (k = 1) and
  the curvature entries a_i/z_i^2 + b_i/(1 - z_i)^2 (k = 2, with -b_i).
- The gradient of a sum (`Point.gradient_forms`) takes one product per
  term and variable, the term times its log-gradient entry; each entry is
  the exact sum of those products, cut once to W bits.
- The second derivative of a sum along v takes, per term T,
  T ((g . v)^2 - sum_i v_i^2 (a_i/z_i^2 + b_i/(1 - z_i)^2)), both inner
  sums exact dot products cut once (`blockform.dot`), and adds the terms
  exactly.
- `term_value`, `sum_value`, `sum_gradient`, `log_gradient` and
  `second_derivative_along` round each result once, to nearest, at the
  working precision.

The rounding is normwise (see `blockform`): a value is accurate to about
2^-wp of its modulus, even where a shape lies within 1e-12 of 0 or 1, and
a component much smaller than the modulus only to that bound.  The solver
takes the block-form values and gradients of its cleared equations into
its linear algebra unrounded (`solver.PolynomialEquation`), as `isolation`
takes the gradients of the tau sums.  At a Point of Python complex, or of
mixed mpmath and Python complex shapes, there is no memo: every power
and log-gradient entry is computed where it is used, with the scalar
type's operators, and such a Point takes no second derivative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

import mpmath
from mpmath import mp

from .blockform import (aligned, block, block_width, cut, dot, form, inverse, minus, mul, one_minus,
                        to_mpc)

if TYPE_CHECKING:
    from .manifold import CornerRef, CuspCurve, CuspData, IdealTriangulation


class DegenerateShapeError(ValueError):
    """A shape coordinate sits inside the guard band around 0 or 1."""


DEGENERACY_GUARD = 1e-12

# Exponent contribution of each corner kind to (a_t, b_t) and to the sign:
#   E0: z               -> (+1,  0), sign +
#   E1: 1/(1-z)         -> ( 0, -1), sign +
#   E2: -(1-z)/z        -> (-1, +1), sign -
_CORNER_EXPONENTS = {"E0": (1, 0, 1), "E1": (0, -1, 1), "E2": (-1, 1, -1)}


@dataclass(frozen=True)
class SignedMonomial:
    """A function +/- prod z_i^{a_i} (1-z_i)^{b_i} in canonical form.

    The representation is unique: the sign and the two integer exponent
    vectors determine the function, and equal functions have equal fields.
    """

    sign: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.a) != len(self.b):
            raise ValueError("exponent vectors must have equal length")

    @staticmethod
    def one(n: int) -> "SignedMonomial":
        return SignedMonomial(1, (0,) * n, (0,) * n)

    @staticmethod
    def from_word(n: int, word: Iterable["CornerRef | tuple[int, str]"]) -> "SignedMonomial":
        """Product of the corner parameters along a fan word."""
        sign = 1
        a = [0] * n
        b = [0] * n
        for corner in word:
            tet, kind = (corner.tet, corner.kind) if hasattr(corner, "tet") else corner
            if not 0 <= tet < n:
                raise ValueError(f"corner tetrahedron index {tet} out of range for n={n}")
            da, db, ds = _CORNER_EXPONENTS[kind]
            a[tet] += da
            b[tet] += db
            sign *= ds
        return SignedMonomial(sign, tuple(a), tuple(b))

    @property
    def n_vars(self) -> int:
        return len(self.a)

    def is_one(self) -> bool:
        return self.sign == 1 and not any(self.a) and not any(self.b)

    def __mul__(self, other: "SignedMonomial") -> "SignedMonomial":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return SignedMonomial(
            self.sign * other.sign,
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
        )

    def inverse(self) -> "SignedMonomial":
        return SignedMonomial(self.sign, tuple(-x for x in self.a), tuple(-x for x in self.b))

    def __neg__(self) -> "SignedMonomial":
        return SignedMonomial(-self.sign, self.a, self.b)

    def as_sum(self) -> "MonomialSum":
        return MonomialSum({(self.a, self.b): self.sign})

    def cleared(self) -> "MonomialSum":
        """Numerator of (self - 1) after clearing the monomial's denominator.

        Splitting the exponents into positive and negative parts writes the
        equation  self = 1  as the polynomial  sign*P_plus - P_minus = 0.
        """
        plus, minus = self.split()
        return MonomialSum({plus: self.sign}) - MonomialSum({minus: 1})

    def split(self) -> tuple["_Key", "_Key"]:
        """The exponents (a, b) of P_plus and of P_minus, the positive and
        negative parts of the monomial's: self = sign * P_plus / P_minus."""
        return ((tuple(max(x, 0) for x in self.a), tuple(max(x, 0) for x in self.b)),
                (tuple(max(-x, 0) for x in self.a), tuple(max(-x, 0) for x in self.b)))

    def evaluate(self, shapes: "ShapeAssignment") -> mpmath.mpc:
        shapes.require_non_degenerate()
        with mp.workprec(shapes.precision_bits):
            # mpc even for the constant monomial, whose term is an int
            return mp.mpc(term_value(self.sign, self.a, self.b, shapes.z))

    def derivative(self, i: int) -> "MonomialSum":
        """Exact partial derivative with respect to z_i.

        d/dz [z^a (1-z)^b] = a z^(a-1) (1-z)^b - b z^a (1-z)^(b-1),
        which stays inside the Laurent monomial ring.
        """
        if not 0 <= i < self.n_vars:
            raise IndexError(f"variable index {i} out of range")
        out = MonomialSum.zero()
        if self.a[i]:
            a = list(self.a)
            a[i] -= 1
            out = out + MonomialSum({(tuple(a), self.b): self.sign * self.a[i]})
        if self.b[i]:
            b = list(self.b)
            b[i] -= 1
            out = out - MonomialSum({(self.a, tuple(b)): self.sign * self.b[i]})
        return out

    def canonical_string(self) -> str:
        parts = []
        for i, (az, bz) in enumerate(zip(self.a, self.b)):
            if az:
                parts.append(f"z{i}^{az}")
            if bz:
                parts.append(f"(1-z{i})^{bz}")
        body = "*".join(parts) if parts else "1"
        return ("-" if self.sign < 0 else "") + body

    def __str__(self) -> str:
        return self.canonical_string()


_Key = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class MonomialSum:
    """Finite integer combination of monomials, like terms merged."""

    terms: dict[_Key, int] = field(default_factory=dict)

    def __post_init__(self):
        for key, coeff in list(self.terms.items()):
            if coeff == 0:
                del self.terms[key]

    @staticmethod
    def zero() -> "MonomialSum":
        return MonomialSum({})

    @staticmethod
    def constant(c: int, n: int) -> "MonomialSum":
        if c == 0:
            return MonomialSum.zero()
        return MonomialSum({((0,) * n, (0,) * n): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MonomialSum") -> "MonomialSum":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return MonomialSum(terms)

    def __sub__(self, other: "MonomialSum") -> "MonomialSum":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) - coeff
        return MonomialSum(terms)

    def __neg__(self) -> "MonomialSum":
        return MonomialSum({key: -c for key, c in self.terms.items()})

    def __mul__(self, other: "MonomialSum | SignedMonomial | int") -> "MonomialSum":
        if isinstance(other, int):
            return MonomialSum({key: c * other for key, c in self.terms.items()})
        if isinstance(other, SignedMonomial):
            other = other.as_sum()
        terms: dict[_Key, int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                terms[key] = terms.get(key, 0) + c1 * c2
        return MonomialSum(terms)

    def evaluate(self, shapes: "ShapeAssignment") -> mpmath.mpc:
        shapes.require_non_degenerate()
        with mp.workprec(shapes.precision_bits):
            return sum_value(self.terms, shapes.z)

    def derivative(self, i: int) -> "MonomialSum":
        out = MonomialSum.zero()
        for (a, b), coeff in self.terms.items():
            mono = SignedMonomial(1 if coeff > 0 else -1, a, b)
            out = out + mono.derivative(i) * abs(coeff)
        return out

    def canonical_string(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (a, b) in sorted(self.terms):
            coeff = self.terms[(a, b)]
            mono = SignedMonomial(1, a, b).canonical_string()
            mag = abs(coeff)
            body = mono if mag == 1 else f"{mag}*{mono}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        head = pieces[0]
        head = ("-" + head[2:]) if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __str__(self) -> str:
        return self.canonical_string()


def in_guard_band(v, guard: float) -> bool:
    """|v| < guard or |1 - v| < guard, decided on squared magnitudes in
    floats: no hypot, no square root, and no mpmath arithmetic; only a
    point within float rounding of the band's edge can be decided
    otherwise."""
    v = complex(v)
    re, im = v.real, v.imag
    bound = guard * guard
    return re * re + im * im < bound or (1 - re) ** 2 + im * im < bound


@dataclass(frozen=True)
class ShapeAssignment:
    """A point of the shape variety: one complex shape per tetrahedron."""

    z: tuple[mpmath.mpc, ...]
    precision_bits: int = 256

    @staticmethod
    def from_values(values, precision_bits: int = 256):
        with mp.workprec(precision_bits):
            z = tuple(mp.mpc(v) for v in values)
        return ShapeAssignment(z, precision_bits)

    def is_degenerate(self) -> bool:
        return any(in_guard_band(z, DEGENERACY_GUARD) for z in self.z)

    def require_non_degenerate(self):
        if self.is_degenerate():
            raise DegenerateShapeError(
                "shape assignment has a coordinate within %.1e of {0, 1}" % DEGENERACY_GUARD
            )

    def is_geometric(self) -> bool:
        return all(z.imag > 0 for z in self.z)


@functools.lru_cache(maxsize=4096)
def _factor_keys(a: tuple, b: tuple) -> tuple:
    """The factors of prod z_i^{a_i} (1 - z_i)^{b_i} as keys, in the order
    z_0, 1 - z_0, z_1, ...: (i, a_i) for z_i^{a_i} and (-1 - i, b_i) for
    (1 - z_i)^{b_i}, zero exponents left out.  They key the powers memoised
    at an mpmath `Point`."""
    keys = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        if ai:
            keys.append((i, ai))
        if bi:
            keys.append((-1 - i, bi))
    return tuple(keys)


@functools.lru_cache(maxsize=4096)
def _gradient_keys(a: tuple, b: tuple) -> tuple:
    """The memo keys (i, a_i, b_i, 1) of the log-gradient entries of
    prod z_i^{a_i} (1 - z_i)^{b_i} that are not zero, in the order of i."""
    return tuple((i, ai, bi, 1) for i, (ai, bi) in enumerate(zip(a, b)) if ai or bi)


class Point(tuple):
    """The shapes z of one point, with the evaluator's memo there when
    every shape is an mpmath complex.

    `Point(z)` of a Point is that Point.  A Point is made at one working
    precision (or holds Python complex, which has none); the memo dies
    with it.  When every shape is an mpmath complex, the Point
    holds each shape and each 1 - z_i in block form, exactly, and the
    width W = wp + wp // 16 of its products, wp being the precision at
    which it is made; `term_form` evaluates on those, forming each term's
    product once, and `gradient_forms` takes the gradient of a sum from
    those products.  Any other Point (Python complex, or mixed) holds
    only `blocks`, False: the evaluator works on its shapes with the
    scalar operators.
    """

    def __new__(cls, z):
        if type(z) is cls:
            return z
        point = super().__new__(cls, z)
        forms = [form(v) for v in point] if all(type(v) is mpmath.mpc for v in point) else [None]
        point.blocks = None not in forms
        if point.blocks:
            point._width = block_width()
            # block forms by `_factor_keys` key: (i, k) -> z_i^k, (-1 - i, k) -> (1 - z_i)^k
            point._forms = {(i, 1): f for i, f in enumerate(forms)}
            point._forms.update(((-1 - i, 1), one_minus(f)) for i, f in enumerate(forms))
            point._products = {}              # (a, b) -> prod z_i^{a_i} (1 - z_i)^{b_i}
            point._log_derivative_forms = {}  # (i, a_i, b_i, k) -> a_i/z_i^k - b_i/(1 - z_i)^k
        return point

    def principal_log(self, c: int, a: tuple, b: tuple) -> mpmath.mpc:
        """mp.log of the term c prod z_i^{a_i} (1 - z_i)^{b_i} (`term_value`)
        at the working precision, memoised by term and precision; only at a
        Point of mpmath shapes."""
        logs = self.__dict__.setdefault("_logs", {})  # (c, a, b, prec) -> log
        key = c, a, b, mp.prec
        if key not in logs:
            logs[key] = mp.log(term_value(c, a, b, self))
        return logs[key]

    def _power_form(self, key: tuple) -> tuple:
        """The memoised power of `_factor_keys` key (i, k), in block form:
        a positive power from the powers k // 2 and k - k // 2, a negative
        one as the inverse of the positive."""
        try:
            return self._forms[key]
        except KeyError:
            i, k = key
            if k < 0:
                value = inverse(self._power_form((i, -k)), self._width)
            else:
                value = mul(self._power_form((i, k // 2)),
                            self._power_form((i, k - k // 2)), self._width)
            self._forms[key] = value
            return value

    def _product(self, keys: tuple) -> tuple:
        """The product of the powers of `_factor_keys` keys, in their order,
        each product cut to W bits; 1 when there are no keys."""
        if not keys:
            return 1, 0, 0
        forms, width = self._forms, self._width
        value = forms.get(keys[0]) or self._power_form(keys[0])
        for key in keys[1:]:
            value = mul(value, forms.get(key) or self._power_form(key), width)
        return value

    def term_form(self, c: int, a: tuple, b: tuple) -> tuple:
        """c * prod z_i^{a_i} (1 - z_i)^{b_i} in block form, for exponent
        tuples a and b.  The product, with coefficient 1 and the factors in
        the order z_0, 1 - z_0, z_1, ..., is formed once per Point
        (`_product`) and memoised; c multiplies it exactly."""
        try:
            re, im, e = self._products[a, b]
        except KeyError:
            re, im, e = self._products[a, b] = self._product(_factor_keys(a, b))
        return c * re, c * im, e

    def _log_derivative_form(self, i: int, a: int, b: int, k: int) -> tuple:
        """a/z_i^k - b/(1 - z_i)^k in block form, memoised: the exact sum of
        the memoised powers z_i^-k and (1 - z_i)^-k times the ints a and b,
        cut once to W bits.  With k = 1 it is the log-gradient entry of
        z^a (1 - z)^b; (i, a, -b, 2) gives its curvature entry
        a/z_i^2 + b/(1 - z_i)^2."""
        try:
            return self._log_derivative_forms[i, a, b, k]
        except KeyError:
            parts = []
            if a:
                re, im, e = self._power_form((i, -k))
                parts.append((a * re, a * im, e))
            if b:
                re, im, e = self._power_form((-1 - i, -k))
                parts.append((-b * re, -b * im, e))
            value = self._log_derivative_forms[i, a, b, k] = cut(*aligned(parts), self._width)
            return value

    def gradient_forms(self, terms: dict) -> list:
        """The gradient of the sum {(a, b): c} in block form.  Entry i is the
        exact sum over the terms T = c prod z^a (1 - z)^b with a_i or b_i
        nonzero of T (a_i/z_i - b_i/(1 - z_i)): one product per such term,
        of T's memoised form (`term_form`) and the memoised log-gradient
        entry (`_log_derivative_form`), the sum cut once to W bits.  An
        entry with no such term is (0, 0, 0)."""
        width, memo = self._width, self._log_derivative_forms
        parts = [[] for _ in self]
        for (a, b), c in terms.items():
            t = self.term_form(c, a, b)
            for key in _gradient_keys(a, b):
                g = memo.get(key) or self._log_derivative_form(*key)
                parts[key[0]].append(mul(t, g, width))
        return [cut(*aligned(p), width) for p in parts]


def _scalar_log_entry(zi, a: int, b: int):
    """a/zi - b/(1 - zi) in the scalar type of zi; a zero exponent costs no
    division, and the entry is the int 0 when both are zero."""
    return (a / zi if a else 0) - (b / (1 - zi) if b else 0)


def term_value(c: int, a, b, z):
    """c * prod z_i^{a_i} (1 - z_i)^{b_i} in the scalar type of z: at the
    working precision for mpmath, in machine precision for Python complex.

    On an mpmath `Point` the product is the Point's `term_form`, rounded
    once at the working precision; it is accurate normwise, to about
    2^-wp of its modulus (see the module docstring).  Otherwise it starts
    from the integer c, so a term without factors is c itself, and
    multiplies in the powers z_i ** a_i and (1 - z_i) ** b_i in the order
    z_0, 1 - z_0, z_1, ..., zero exponents left out.
    """
    z = Point(z)
    if z.blocks:
        return to_mpc(z.term_form(c, a, b))
    value = c
    for i, k in _factor_keys(a, b):
        value *= (z[i] if i >= 0 else 1 - z[-1 - i]) ** k
    return value


def sum_value(terms: dict[_Key, int], z):
    """Value of the terms {(a, b): c} of a MonomialSum, in the scalar type
    of z (see `term_value`).  On an mpmath `Point` the terms' block forms
    are added exactly and the sum is rounded once; otherwise the sum starts
    from that type's zero."""
    z = Point(z)
    if z.blocks:
        return to_mpc(aligned([z.term_form(c, a, b) for (a, b), c in terms.items()]))
    total = 0 * z[0]
    for (a, b), c in terms.items():
        total += term_value(c, a, b, z)
    return total


def sum_gradient(terms: dict[_Key, int], z) -> list:
    """The gradient of the sum {(a, b): c} at z, in the scalar type of z
    (see `term_value`): entry i is the sum of T (a_i/z_i - b_i/(1 - z_i))
    over the terms T = c prod z^a (1 - z)^b, each term's derivative taken
    from its value and its log gradient.  On an mpmath `Point` each entry
    is that of `Point.gradient_forms`, rounded once; otherwise T is
    `term_value`'s, the log-gradient entry is `log_gradient`'s formula in
    the scalar operators, and every entry starts from that type's zero."""
    z = Point(z)
    if z.blocks:
        return [to_mpc(v) for v in z.gradient_forms(terms)]
    gradient = [0 * z[0]] * len(z)
    for (a, b), c in terms.items():
        t = term_value(c, a, b, z)
        for i, ai, bi, _ in _gradient_keys(a, b):
            gradient[i] += t * _scalar_log_entry(z[i], ai, bi)
    return gradient


def log_gradient(a, b, z) -> list:
    """Gradient of log(z^a (1-z)^b): entries a_i/z_i - b_i/(1 - z_i).  On
    an mpmath `Point` an entry is the block form memoised there
    (`Point._log_derivative_form`), rounded once; otherwise it is plain
    arithmetic in the scalar type of z, a zero exponent costing no
    division."""
    z = Point(z)
    if z.blocks:
        return [to_mpc(z._log_derivative_form(i, *ab, 1)) for i, ab in enumerate(zip(a, b))]
    return [_scalar_log_entry(zi, ai, bi) for zi, ai, bi in zip(z, a, b)]


def second_derivative_along(terms: dict[_Key, int], z, v) -> mpmath.mpc:
    """v^T (Hessian of the sum) v at an mpmath point z, in closed form.

    For one term T with log gradient g,
        v^T (Hess T) v = T ((g . v)^2 - sum_i v_i^2 (a_i/z_i^2 + b_i/(1-z_i)^2)).
    In block form, from the memo of the `Point` z that the Jacobian and the
    sums' values at z share: T is `Point.term_form`, and g . v and the
    curvature sum are exact dot products (`blockform.dot`) of the memoised
    log-derivative entries with v and with its squares, v taken exactly
    into block form once.  The terms are summed exactly and the sum is
    rounded once.
    """
    z = Point(z)
    width = z._width
    v = [block(x) for x in v]
    squares = [mul(x, x, width) for x in v]
    parts = []
    for (a, b), c in terms.items():
        keys = _gradient_keys(a, b)
        gv = dot([z._log_derivative_form(*k) for k in keys], [v[k[0]] for k in keys], width)
        curvature = dot([z._log_derivative_form(i, ai, -bi, 2) for i, ai, bi, _ in keys],
                        [squares[k[0]] for k in keys], width)
        parts.append(mul(z.term_form(c, a, b), minus(mul(gv, gv, width), curvature, width), width))
    return to_mpc(aligned(parts))


def mu(tri: "IdealTriangulation", curve: "CuspCurve") -> SignedMonomial:
    """Dilation part of the peripheral holonomy of a closed cusp curve.

    The product of all right-hand fan words along the curve, times (-1)^m
    for a curve through m vertices.
    """
    n = tri.n_tet
    m = len(curve.vertices)
    out = SignedMonomial.one(n) if m % 2 == 0 else -SignedMonomial.one(n)
    for vertex in curve.vertices:
        out = out * SignedMonomial.from_word(n, vertex.word)
    return out


def tau(tri: "IdealTriangulation", curve: "CuspCurve") -> MonomialSum:
    """Translation part of the peripheral holonomy, normalized at the
    reference edge: the alternating sum of leading partial products.

    w_0 comes from the curve's w0_word (empty word means w_0 = 1); the
    later w_j are the stored fan words.
    """
    n = tri.n_tet
    m = len(curve.vertices)
    partial = SignedMonomial.from_word(n, curve.w0_word)
    total = partial.as_sum()
    for l in range(1, m):
        partial = partial * SignedMonomial.from_word(n, curve.vertices[l].word)
        term = partial.as_sum()
        total = (total - term) if l % 2 else (total + term)
    return total


def cusp_parameter(tri: "IdealTriangulation", cusp: "CuspData") -> tuple[MonomialSum, MonomialSum]:
    """The cusp parameter as the exact pair (tau(longitude), tau(meridian)).

    The quotient is only ever formed numerically, at evaluation time; the
    pair stays in the monomial-sum ring.
    """
    return tau(tri, cusp.longitude), tau(tri, cusp.meridian)


def evaluate_cusp_parameter(
    pair: tuple[MonomialSum, MonomialSum], shapes: ShapeAssignment
) -> mpmath.mpc:
    """Numerical value tau(l)/tau(m); raises if the denominator vanishes."""
    shapes.require_non_degenerate()
    with mp.workprec(shapes.precision_bits):
        z = Point(shapes.z)
        num = sum_value(pair[0].terms, z)
        den = sum_value(pair[1].terms, z)
        if abs(den) < mp.mpf(2) ** (-shapes.precision_bits // 2):
            raise ZeroDivisionError(
                "tau(meridian) vanishes at this point; the cusp parameter "
                "is undefined here (degenerate input or far from the "
                "complete structure)"
            )
        return num / den
