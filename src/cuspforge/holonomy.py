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

The evaluator works at a `Point`: the shapes with a memo that computes
each power z_i^k and (1 - z_i)^k, each log-gradient entry and each
curvature entry once per point, and at an mpmath point each term's
product.  A memoised value depends only on the shape, the exponent and
the precision the Point is made at, never on which evaluation asked for
it first, and every product keeps its factor order, so every value is
bit-identical to one computed on a fresh Point.  The solver makes one
Point per trial point and evaluates its residual, then the values and
Jacobian of the step taken from it, then its tangent and, at a traced
sample (which keeps its Point), the cusp parameter, all from that one
memo; a plain sequence passed to the evaluator becomes a Point for the
length of that call.  No memo outlives its point.

At a Point whose shapes are all mpmath numbers, products, powers and
sums are not taken in mpmath.  They run in *block form*: a complex value
is (re + i im) 2^e with Python ints re and im and one exponent e (integer
mantissas with explicit exponents, as in Brent and Zimmermann, Modern
Computer Arithmetic, ch. 3).

- The Point holds each z_i, and 1 - z_i formed from it, exactly.
- A product is four integer multiplications, cut back to the Point's
  width W = wp + wp // 16 bits by one floor shift, where wp is the working
  precision when the Point is made.  A power is built from two memoised
  powers; a negative power is the conjugate of the positive one divided
  by its re^2 + im^2.
- A term's product, with coefficient 1, is formed once per Point
  (`Point.term_form`).
- A sum aligns the exponents of its terms and adds them exactly.
- The gradient of a sum (`Point.gradient_forms`) takes one product per
  term and variable: the term times its log-gradient entry
  a_i/z_i - b_i/(1 - z_i), formed once per Point from the memoised
  inverses of z_i and 1 - z_i.  Each entry is the exact sum of those
  products, cut once to W bits.
- `term_value`, `sum_value` and `sum_gradient` round each result once,
  to nearest, at the working precision.  `_quotient_root` takes the one
  square root of a residual, the root of a quotient of exact squares.

The rounding is normwise: a block-form value is accurate to about 2^-W
of its modulus per product, and the rounded result to about 2^-wp of its
modulus, even where a shape lies within 1e-12 of 0 or 1.  A component much
smaller than the modulus is accurate only to that bound, not relative to
itself as mpmath's componentwise rounding is: the imaginary part of a real
value is noise at about 2^-W times its modulus.  The wp // 16 guard bits
grow with the precision: without them a long product keeps fewer than wp
correct bits, and a fixed guard of 20 bits would more than double the
accuracy of a solve at a few bits.  The solver takes the block-form
values and gradients of its cleared equations into its linear algebra as
they are, unrounded (`solver.PolynomialEquation`); `log_gradient` and
the curvature entries, for the filling rows and second derivatives, stay
mpmath.  At a Point of Python complex, or of mixed mpmath and Python
complex shapes, every operation is the scalar type's operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_sqrt

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

    @property
    def n(self) -> int:
        return len(self.z)

    def is_degenerate(self) -> bool:
        return any(in_guard_band(z, DEGENERACY_GUARD) for z in self.z)

    def require_non_degenerate(self):
        if self.is_degenerate():
            raise DegenerateShapeError(
                "shape assignment has a coordinate within %.1e of {0, 1}" % DEGENERACY_GUARD
            )

    def is_geometric(self) -> bool:
        return all(z.imag > 0 for z in self.z)


def _form(x) -> tuple:
    """The block form (re, im, e) of an mpmath complex x, exactly: x is
    (re + i im) 2^e with Python ints re and im.  None when a part is
    infinite or nan."""
    (rs, rm, re_, _), (is_, im, ie, _) = x._mpc_
    if (not rm and re_) or (not im and ie):
        return None
    rm, im = (-rm if rs else rm), (-im if is_ else im)
    if not rm:
        return 0, im, ie
    if not im:
        return rm, 0, re_
    e = min(re_, ie)
    return rm << (re_ - e), im << (ie - e), e


def _one_minus(form) -> tuple:
    """The block form of 1 - x, exactly."""
    re, im, e = form
    if e >= 0:
        return 1 - (re << e), -im << e, 0
    return (1 << -e) - re, -im, e


def _block_width() -> int:
    """The width W = wp + wp // 16 of block-form values at the working
    precision wp."""
    return mp.prec + mp.prec // 16


def _cut(re: int, im: int, e: int, width: int) -> tuple:
    """(re + i im) 2^e in block form, cut to `width` bits by one floor shift."""
    s = max(re.bit_length(), im.bit_length()) - width
    if s > 0:
        return re >> s, im >> s, e + s
    return re, im, e


def _mul(x, y, width) -> tuple:
    """x y in block form, cut to `width` bits (`_cut`)."""
    a, b, e = x
    c, d, f = y
    return _cut(a * c - b * d, a * d + b * c, e + f, width)


def _inverse(x, width) -> tuple:
    """1/x in block form, to about `width` bits: conj(x) / (re^2 + im^2)."""
    a, b, e = x
    norm = a * a + b * b
    s = width + max(a.bit_length(), b.bit_length())
    return (a << s) // norm, (-b << s) // norm, -e - s


def _aligned(forms) -> tuple:
    """The exact sum of block forms, as (re, im, e)."""
    e = min(f[2] for f in forms)
    re = im = 0
    for a, b, f in forms:
        re += a << (f - e)
        im += b << (f - e)
    return re, im, e


def _to_mpc(form):
    """The block form rounded once, to nearest, at the working precision."""
    re, im, e = form
    prec = mp.prec
    return mp.make_mpc((from_man_exp(re, e, prec, "n"), from_man_exp(im, e, prec, "n")))


@functools.lru_cache(maxsize=4096)
def _factor_keys(a: tuple, b: tuple) -> tuple:
    """The memo keys of the factors of prod z_i^{a_i} (1 - z_i)^{b_i} at a
    `Point`, in the order z_0, 1 - z_0, z_1, ...: (i, a_i) for z_i^{a_i}
    and (-1 - i, b_i) for (1 - z_i)^{b_i}, zero exponents left out."""
    keys = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        if ai:
            keys.append((i, ai))
        if bi:
            keys.append((-1 - i, bi))
    return tuple(keys)


@functools.lru_cache(maxsize=4096)
def _gradient_keys(a: tuple, b: tuple) -> tuple:
    """The keys (i, a_i, b_i) of the log-gradient entries of
    prod z_i^{a_i} (1 - z_i)^{b_i} that are not zero, in the order of i."""
    return tuple((i, ai, bi) for i, (ai, bi) in enumerate(zip(a, b)) if ai or bi)


class Point(tuple):
    """The shapes z of one point, with the evaluator's memo there.

    `Point(z)` of a Point is that Point.  A Point is made at one working
    precision (or holds Python complex, which has none); the memo dies
    with it.  When every shape is an mpmath complex, the Point
    holds each shape and each 1 - z_i in block form, exactly, and the
    width W = wp + wp // 16 of its products, wp being the precision at
    which it is made; `term_form` evaluates on those, forming each term's
    product once, and `gradient_forms` takes the gradient of a sum from
    those products.  Any other Point (Python complex, or mixed) evaluates
    with the scalar operators.
    """

    def __new__(cls, z):
        if type(z) is cls:
            return z
        point = super().__new__(cls, z)
        point._z_powers = {}        # (i, k) -> z_i^k
        point._w_powers = {}        # (i, k) -> (1 - z_i)^k
        point._log_gradient = {}    # (i, a_i, b_i) -> a_i/z_i - b_i/(1 - z_i)
        point._curvature = {}       # (i, a_i, b_i) -> a_i/z_i^2 + b_i/(1 - z_i)^2
        forms = [_form(v) for v in point] if all(type(v) is mpmath.mpc for v in point) else [None]
        point.blocks = None not in forms
        if point.blocks:
            point._width = _block_width()
            # block forms by `_factor_keys` key: (i, k) -> z_i^k, (-1 - i, k) -> (1 - z_i)^k
            point._forms = {(i, 1): f for i, f in enumerate(forms)}
            point._forms.update(((-1 - i, 1), _one_minus(f)) for i, f in enumerate(forms))
            point._products = {}            # (a, b) -> prod z_i^{a_i} (1 - z_i)^{b_i}
            point._log_gradient_forms = {}  # (i, a_i, b_i) -> a_i/z_i - b_i/(1 - z_i)
        return point

    def _power_form(self, key: tuple) -> tuple:
        """The memoised power of `_factor_keys` key (i, k), in block form:
        a positive power from the powers k // 2 and k - k // 2, a negative
        one as the inverse of the positive."""
        try:
            return self._forms[key]
        except KeyError:
            i, k = key
            if k < 0:
                value = _inverse(self._power_form((i, -k)), self._width)
            else:
                value = _mul(self._power_form((i, k // 2)),
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
            value = _mul(value, forms.get(key) or self._power_form(key), width)
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

    def _gradient_form(self, i: int, a: int, b: int) -> tuple:
        """a/z_i - b/(1 - z_i) in block form, memoised: the exact sum of the
        memoised inverses of z_i and 1 - z_i times the ints a and b, cut
        once to W bits."""
        try:
            return self._log_gradient_forms[i, a, b]
        except KeyError:
            parts = []
            if a:
                re, im, e = self._power_form((i, -1))
                parts.append((a * re, a * im, e))
            if b:
                re, im, e = self._power_form((-1 - i, -1))
                parts.append((-b * re, -b * im, e))
            value = self._log_gradient_forms[i, a, b] = _cut(*_aligned(parts), self._width)
            return value

    def gradient_forms(self, terms: dict) -> list:
        """The gradient of the sum {(a, b): c} in block form.  Entry i is the
        exact sum over the terms T = c prod z^a (1 - z)^b with a_i or b_i
        nonzero of T (a_i/z_i - b_i/(1 - z_i)): one product per such term,
        of T's memoised form (`term_form`) and the memoised log-gradient
        entry (`_gradient_form`), the sum cut once to W bits.  An entry with
        no such term is (0, 0, 0)."""
        width, memo = self._width, self._log_gradient_forms
        parts = [[] for _ in self]
        for (a, b), c in terms.items():
            t = self.term_form(c, a, b)
            for key in _gradient_keys(a, b):
                parts[key[0]].append(_mul(t, memo.get(key) or self._gradient_form(*key), width))
        return [_cut(*_aligned(p), width) if p else (0, 0, 0) for p in parts]

    def z_power(self, i: int, k: int):
        """z_i ** k."""
        try:
            return self._z_powers[i, k]
        except KeyError:
            value = self._z_powers[i, k] = self[i] ** k
            return value

    def w_power(self, i: int, k: int):
        """(1 - z_i) ** k."""
        try:
            return self._w_powers[i, k]
        except KeyError:
            value = self._w_powers[i, k] = (1 - self[i]) ** k
            return value

    def log_gradient_entry(self, i: int, a: int, b: int):
        """a/z_i - b/(1 - z_i); a zero exponent costs no division, and the
        entry is the int 0 when both are zero."""
        try:
            return self._log_gradient[i, a, b]
        except KeyError:
            zi = self[i]
            value = self._log_gradient[i, a, b] = \
                (a / zi if a else 0) - (b / (1 - zi) if b else 0)
            return value

    def curvature_entry(self, i: int, a: int, b: int):
        """a/z_i^2 + b/(1 - z_i)^2, from the memoised squares."""
        try:
            return self._curvature[i, a, b]
        except KeyError:
            value = self._curvature[i, a, b] = \
                (a / self.z_power(i, 2) if a else 0) + (b / self.w_power(i, 2) if b else 0)
            return value


def term_value(c: int, a, b, z):
    """c * prod z_i^{a_i} (1 - z_i)^{b_i} in the scalar type of z: at the
    working precision for mpmath, in machine precision for Python complex.

    On an mpmath `Point` the product is the Point's `term_form`, rounded
    once at the working precision; it is accurate normwise, to about
    2^-wp of its modulus (see the module docstring).  Otherwise it starts
    from the integer c, so a term without factors is c itself, and takes
    the factors in the order z_0, 1 - z_0, z_1, ...; each power comes from
    the memo of the `Point` z.
    """
    z = Point(z)
    if z.blocks:
        return _to_mpc(z.term_form(c, a, b))
    value = c
    for i, (ai, bi) in enumerate(zip(a, b)):
        if ai:
            value *= z.z_power(i, ai)
        if bi:
            value *= z.w_power(i, bi)
    return value


def sum_value(terms: dict[_Key, int], z):
    """Value of the terms {(a, b): c} of a MonomialSum, in the scalar type
    of z (see `term_value`).  On an mpmath `Point` the terms' block forms
    are added exactly and the sum is rounded once; otherwise the sum starts
    from that type's zero.  All terms share the powers memoised at the
    `Point` z."""
    z = Point(z)
    if z.blocks:
        if not terms:
            return mp.mpc(0)
        return _to_mpc(_aligned([z.term_form(c, a, b) for (a, b), c in terms.items()]))
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
    `term_value`'s, the log-gradient entry is memoised at the `Point` z,
    and every entry starts from that type's zero."""
    z = Point(z)
    if z.blocks:
        return [_to_mpc(v) for v in z.gradient_forms(terms)]
    gradient = [0 * z[0]] * len(z)
    for (a, b), c in terms.items():
        t = term_value(c, a, b, z)
        for i, ai, bi in _gradient_keys(a, b):
            gradient[i] += t * z.log_gradient_entry(i, ai, bi)
    return gradient


def _quotient_root(x: tuple, y: tuple) -> mpmath.mpf:
    """sqrt(x / y) for x = (m, e) and y = (n, f), the numbers m 2^e and
    n 2^f with ints m >= 0 and n > 0, rounded to nearest at the working
    precision wp.  The quotient is cut to at least 2 wp + 5 bits and its
    last bit set when the division is inexact; no rounding boundary of the
    root lies within that cut, so the root is that of the exact quotient,
    and it grows with the quotient."""
    (m, e), (n, f) = x, y
    s = max(0, 2 * mp.prec + 5 + n.bit_length() - m.bit_length())
    q, r = divmod(m << s, n)
    return mp.make_mpf(mpf_sqrt(from_man_exp(q | (r > 0), e - f - s), mp.prec, "n"))


def log_gradient(a, b, z) -> list:
    """Gradient of log(z^a (1-z)^b): entries a_i/z_i - b_i/(1 - z_i).

    Plain arithmetic, so it serves Python complex and mpmath points alike;
    a zero exponent costs no division, and each entry is memoised at the
    `Point` z.
    """
    z = Point(z)
    return [z.log_gradient_entry(i, ai, bi) for i, (ai, bi) in enumerate(zip(a, b))]


def second_derivative_along(terms: dict[_Key, int], z, v) -> mpmath.mpc:
    """v^T (Hessian of the sum) v at z, in closed form.

    For one term T with log gradient g,
        v^T (Hess T) v = T ((g . v)^2 - sum_i v_i^2 (a_i/z_i^2 + b_i/(1-z_i)^2)).
    T, g and the curvature entries come from the memo of the `Point` z,
    which the Jacobian and the sums' values at z share.
    """
    z = Point(z)
    squares = [vi * vi for vi in v]
    total = mp.mpc(0)
    for (a, b), c in terms.items():
        gv = sum(g * vi for g, vi in zip(log_gradient(a, b, z), v))
        curvature = sum(s * z.curvature_entry(i, ai, bi)
                        for i, (ai, bi, s) in enumerate(zip(a, b, squares)))
        total += term_value(c, a, b, z) * (gv * gv - curvature)
    return total


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
