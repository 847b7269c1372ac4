"""Integer block-form arithmetic and elimination.

A complex value in *block form* is a triple (re, im, e) of Python ints,
the number (re + i im) 2^e: integer mantissas with one explicit exponent
for both parts (Brent and Zimmermann, Modern Computer Arithmetic, ch. 3).
At an mpmath point the evaluator of `holonomy` forms its products, powers,
sums, gradients and second derivatives in block form, and the
working-precision linear algebra of `solver` and `isolation` factors and
solves block forms; none of them runs an mpmath operator.  A value enters
exactly (`form`, `block`) and leaves rounded once, to nearest, at the
working precision wp (`to_mpc`, `quotient_root`).

Between the two, a result is cut to a width of `width` bits by one floor
shift of both parts (`cut`).  The callers cut to W = wp + wp // 16 bits
(`block_width`).  The wp // 16 guard bits grow with the precision: without
them a long product keeps fewer than wp correct bits, and a fixed guard of
20 bits would more than double the accuracy of a solve at a few bits.

Each operation's truncation, relative to the modulus |x| of its exact
result x (normwise, not per part):

- exact, no truncation: `form`, `block`, `one_minus`, `aligned` (a sum),
  `squared`, and the comparisons `exceeds` and `first_largest`;
- one cut, each part within 2^(1 - width) |x|: `cut` itself, `mul` (the
  exact product, cut), `minus` (the exact difference, cut), `dot` (the
  exact sum of exact products, cut) and `inverse` (each part of
  conj(y) / |y|^2 by one floor division);
- rounded once to nearest at wp, each part relative to itself: `to_mpc`;
  and `quotient_root` rounds the exact square root of a quotient.

A part much smaller than |x| is accurate only to that bound, not relative
to itself as mpmath's componentwise rounding is: the imaginary part of a
real value is noise at about 2^-W |x|.  Block-form elimination
(`block_step`, `block_factor`, `block_solve`, `back_substitute`) cuts every
product and every updated entry, so its error is that of Gaussian
elimination with a unit roundoff of about 2^-W (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 9), normwise.
"""

from __future__ import annotations

import cmath

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_sqrt


def form(x) -> tuple:
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


def one_minus(x) -> tuple:
    """The block form of 1 - x, exactly."""
    re, im, e = x
    if e >= 0:
        return 1 - (re << e), -im << e, 0
    return (1 << -e) - re, -im, e


def block_width() -> int:
    """The width W = wp + wp // 16 of block-form values at the working
    precision wp."""
    return mp.prec + mp.prec // 16


def cut(re: int, im: int, e: int, width: int) -> tuple:
    """(re + i im) 2^e in block form, cut to `width` bits by one floor shift."""
    s = max(re.bit_length(), im.bit_length()) - width
    if s > 0:
        return re >> s, im >> s, e + s
    return re, im, e


def mul(x, y, width) -> tuple:
    """x y in block form, cut to `width` bits (`cut`)."""
    a, b, e = x
    c, d, f = y
    return cut(a * c - b * d, a * d + b * c, e + f, width)


def inverse(x, width) -> tuple:
    """1/x in block form, to about `width` bits: conj(x) / (re^2 + im^2)."""
    a, b, e = x
    norm = a * a + b * b
    s = width + max(a.bit_length(), b.bit_length())
    return (a << s) // norm, (-b << s) // norm, -e - s


def aligned(forms) -> tuple:
    """The exact sum of block forms, as (re, im, e); (0, 0, 0) for none."""
    e = min((f[2] for f in forms), default=0)
    re = im = 0
    for a, b, f in forms:
        re += a << (f - e)
        im += b << (f - e)
    return re, im, e


def minus(x: tuple, y: tuple, width: int) -> tuple:
    """x - y in block form: the exact sum, cut once to `width` bits."""
    a, b, e = x
    c, d, f = y
    if e > f:
        a, b, e = a << (e - f), b << (e - f), f
    elif f > e:
        c, d = c << (f - e), d << (f - e)
    return cut(a - c, b - d, e, width)


def dot(x: list, y: list, width: int) -> tuple:
    """sum_k x_k y_k over block forms: the exact sum of the exact products,
    cut once to `width` bits; (0, 0, 0) when no product is nonzero."""
    return cut(*aligned([(a * c - b * d, a * d + b * c, e + f)
                         for (a, b, e), (c, d, f) in zip(x, y) if (a or b) and (c or d)]), width)


def squared(x: tuple) -> tuple:
    """re^2 + im^2 of a block form (re, im, e), exactly, as (m, 2 e)."""
    return x[0] * x[0] + x[1] * x[1], 2 * x[2]


def exceeds(x: tuple, y: tuple) -> bool:
    """Whether m 2^e > n 2^f, exactly, for x = (m, e) and y = (n, f) with
    ints m, n >= 0."""
    (m, e), (n, f) = x, y
    if not (m and n):
        return m > n
    if m.bit_length() + e != n.bit_length() + f:
        return m.bit_length() + e > n.bit_length() + f
    return m << (e - f) > n if e >= f else m > n << (f - e)


def first_largest(pairs: list) -> int:
    """The index of the first largest m 2^e among pairs (m, e) with ints
    m >= 0, compared exactly (`exceeds`)."""
    best = 0
    for i in range(1, len(pairs)):
        if exceeds(pairs[i], pairs[best]):
            best = i
    return best


def _part(x: float) -> tuple:
    """A finite float as (m, e) with x = m 2^e exactly."""
    m, d = x.as_integer_ratio()
    return m, 1 - d.bit_length()


def block(v) -> tuple:
    """The block form (re, im, e) of a matrix or right-hand-side entry,
    exactly: a block form itself, an int, a Python complex or float, or an
    mpmath complex.  An infinite or nan entry raises ZeroDivisionError, as
    a system that cannot be solved."""
    if type(v) is tuple:
        return v
    if isinstance(v, int):
        return v, 0, 0
    if isinstance(v, (complex, float)):
        v = complex(v)
        if not cmath.isfinite(v):
            raise ZeroDivisionError("non-finite entry")
        (re, er), (im, ei) = _part(v.real), _part(v.imag)
        if not im:
            return re, 0, er
        if not re:
            return 0, im, ei
        e = min(er, ei)
        return re << (er - e), im << (ei - e), e
    x = form(v)
    if x is None:
        raise ZeroDivisionError("non-finite entry")
    return x


def to_mpc(x):
    """The block form rounded once, to nearest, at the working precision."""
    re, im, e = x
    prec = mp.prec
    return mp.make_mpc((from_man_exp(re, e, prec, "n"), from_man_exp(im, e, prec, "n")))


def quotient_root(x: tuple, y: tuple):
    """sqrt(x / y) for x = (m, e) and y = (n, f), the numbers m 2^e and
    n 2^f with ints m >= 0 and n > 0, as an mpmath real rounded to nearest
    at the working precision wp.  The quotient is cut to at least
    2 wp + 5 bits and its last bit set when the division is inexact; no
    rounding boundary of the root lies within that cut, so the root is
    that of the exact quotient, and it grows with the quotient."""
    (m, e), (n, f) = x, y
    s = max(0, 2 * mp.prec + 5 + n.bit_length() - m.bit_length())
    q, r = divmod(m << s, n)
    return mp.make_mpf(mpf_sqrt(from_man_exp(q | (r > 0), e - f - s), mp.prec, "n"))


def block_step(a: list[list], col: int, width: int) -> tuple:
    """One block-form elimination step below the pivot a[col][col], in
    place; returns the pivot's `inverse`.  A row's multiplier, its entry
    times the inverse, is stored in its place, and each later entry becomes
    `minus`(entry, multiplier * pivot-row entry), all cut to `width` bits;
    a zero entry leaves its row as it is."""
    top = a[col]
    pivot_inverse = inverse(top[col], width)
    for row in a[col + 1:]:
        if not (row[col][0] or row[col][1]):
            continue
        f = row[col] = mul(row[col], pivot_inverse, width)
        for c in range(col + 1, len(top)):
            row[c] = minus(row[c], mul(f, top[c], width), width)
    return pivot_inverse


def back_substitute(u: list[list], inverses: list, y: list, x: list, width: int) -> list:
    """x[i] = (y[i] - sum_{j > i} u[i][j] x[j]) inverses[i] for i below
    len(inverses), last first, in block form: the exact sum of products cut
    to `width` bits, cut once.  The entries of x past them are given."""
    for i in reversed(range(len(inverses))):
        terms = [y[i]]
        for j in range(i + 1, len(x)):
            re, im, e = mul(u[i][j], x[j], width)
            terms.append((-re, -im, e))
        x[i] = mul(cut(*aligned(terms), width), inverses[i], width)
    return x


def block_factor(a: list[list]) -> tuple:
    """(lu, perm, inverses, width): the elimination of `solver._lu_factor`
    on the square matrix A of block forms, in place, by `block_step` at the
    width W = wp + wp // 16 of the working precision wp.  Pivots and the
    singular test are `solver._lu_factor`'s, compared exactly, with
    eps = 2^(1 - wp); inverses[k] is the inverse of the pivot lu[k][k]."""
    n, width = len(a), block_width()
    sums = [aligned([(abs(re) + abs(im), 0, e) for re, im, e in column])[::2]
            for column in zip(*a)]
    norm, e = sums[first_largest(sums)]
    tol = norm, e + 1 - mp.prec
    perm, inverses = list(range(n)), []
    for col in range(n):
        piv = col + first_largest([squared(a[k][col]) for k in range(col, n)])
        re, im, e = a[piv][col]
        if not exceeds((abs(re) + abs(im), e), tol):
            raise ZeroDivisionError("numerically singular square system")
        a[col], a[piv] = a[piv], a[col]
        perm[col], perm[piv] = perm[piv], perm[col]
        inverses.append(block_step(a, col, width))
    return a, perm, inverses, width


def block_solve(factor: tuple, b: list) -> list:
    """x with A x = b, in block forms, from `block_factor`'s
    (lu, perm, inverses, width) of A: as in `solver._lu_solve`, the bits of
    eliminating [A | b] by `block_step`, then `back_substitute`."""
    lu, perm, inverses, width = factor
    n = len(lu)
    y = [b[i] for i in perm]
    for col in range(n):
        for k in range(col + 1, n):
            f = lu[k][col]
            if f[0] or f[1]:
                y[k] = minus(y[k], mul(f, y[col], width), width)
    return back_substitute(lu, inverses, y, [None] * n, width)

