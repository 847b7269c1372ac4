"""Arbitrary-precision solving of gluing systems.

Complete structures are found in two stages.

1. Start search, in machine precision.  Damped Gauss-Newton runs on the
   gluing system in log form, in Python complex arithmetic.  Each edge row
   is the angle sum of its corners: an E0 corner adds Log z, an E1 corner
   -Log(1-z), an E2 corner Log(1-z) - Log z + i pi, with target 2 pi i.
   Each cusp row is the principal Log of a peripheral dilation, target 0.
   Every row's gradient is exactly a/z - b/(1-z).  The starts are the
   regular shape and seeded perturbations of it.
2. Polish, at p+30 bits.  A float root with every Im z > 0 seeds damped
   Newton on the cleared-denominator polynomial system {edge equations = 1}
   with {mu = 1} for both peripheral curves of every cusp.  A point given
   as `initial` (a lower-precision solution) is polished directly, before
   any search.  `_cleared_rows` builds the rows of every system once per
   triangulation; stage 1 reads its log rows off them.

Every Newton step of a solve is one `least_squares` solve: elimination
with partial pivoting on the normal equations, with the upper triangle of
the Hermitian matrix N = A^H A formed and the lower one its conjugate.
Every square system, N or a pinned one, is factored once by `_factor`, in
the number type of its entries, and solved in that type.  A Python
complex system is eliminated with the complex operators.  An mpmath
system runs no mpmath operator: its entries are taken exactly into the
integer block form of `blockform`, (re + i im) 2^e with Python-int
mantissas, and every entry of N is the exact sum of exact products cut
once to W = wp + wp // 16 bits (`blockform.dot`), wp being the working
precision plus 20 guard bits.  The elimination of `blockform` solves, and
each entry of the solution is rounded to mpmath once; its error is stated
there.

Every trial point of a Newton loop is a `holonomy.Point`, and at an
mpmath point each step is evaluated from the memo of its point.  A
cleared row of the monomial M = sign T+ / T- is sign T+ - T- = 0, and at
an mpmath point the products of its two terms are formed once, in block
form, for the point's residual; the step from an accepted point reuses
them.  The row's value is sign T+ - T-, exactly, and each Jacobian entry
the exact sum of the terms times their log-gradient entries, cut once to
W bits (`holonomy.Point.gradient_forms`).  Both go into the elimination
as block forms (`PolynomialEquation.row` and `rhs`), never rounded to
mpmath; `system_jacobian` is the Jacobian rounded once, for the kernel
check and for callers.  A row's residual is |M - 1| = |sign T+ - T-| /
|T-|: `_residual` compares the rows' quotients of exact squares by
cross-multiplication and takes one square root, of the largest.  On
Python complex the Jacobian is the same formula in the complex
operators, and the residual that of M's product.

The edge rows are redundant (their product is identically 1), but the
whole system has full column rank at the geometric solution
(Neumann-Zagier), so no rows are dropped and no rank cutoff is needed.
A polish that accepts its start without moving it factors the normal
equations there once, and a singular factorisation refuses the start: a
root of a rank-deficient system is no solve.

A completeness curve (the edge rows and one meridian row: n + 1 rows of
rank n - 1) is different.  `curve_pin` runs once per curve.  Its one
decision, `numerical_kernel`, is complete-pivot elimination of the rows
taken exactly into block form, by the block-form step of every mpmath
factorisation (`block_step`); it checks that the kernel is
one-dimensional, or raises KernelDimensionError near the rank cut, and
gives the kernel vector in block form and the n - 1 pivot rows to keep.
The pivots and the pinned coordinate, the largest entry of the kernel
vector, follow one tie rule on exact squares: a modulus within a relative
2^-40 of the largest ties with it, and ties go to the first entry, row by
row, so equal moduli (berge's regular tetrahedra) keep the same rows and
pin at every precision from 11 bits.  The decision runs no mpmath
operator; only the message of a refused one rounds its magnitudes.  Every
curve direction after that solves the kept rows without the pin column,
a square system that `pinned_factor` factors by `_factor`, the
partial-pivoting elimination of `least_squares`; solves that share a
Jacobian share its factorisation.

Dehn-filled structures replace a filled cusp's completeness rows by the
log-holonomy condition of the slope (p, q) given to `solve_filled` (a
triangulation carries no filling)

    p log mu(m) + q log mu(l) = 2 pi i.

`solve_filled` runs the start search of stage 1 over the same schedule
and takes its first float root with every Im z > 0 (else its first root)
as the complete structure: no complete structure is polished for a
filling.  The target is reached by ramping the right-hand side from 0 at
that root to 2 pi i, in machine precision: each ramp step is Newton with
`least_squares` steps on the same cleared equations and `FillingEquation`
rows, evaluated on Python complex by the one evaluator of `holonomy`.
The log branches are carried by continuity; small fillings genuinely
leave the principal branch, so branch bookkeeping is part of the
equation, with step halving and an explicit "stalled" failure when
continuity cannot be maintained.  The float point at 2 pi i, with its
branches as the reference, is then polished once at p+30 bits; a polish
that misses the residual target raises SolveError, and no other start is
tried.  In that polish, a principal log whose imaginary part lies within
2^-(p // 2) of -pi is read as +pi (`FillingEquation.tie`), so the branch
offsets of a flat filling, whose dilations are real, do not follow
round-off.
`doubled_filling` polishes that result once more at 2p+30 bits, with the
target 2 pi i taken at that precision and the branches the p polish
ended on, read by the same window: the filled counterpart of a complete
solve polished at 2p from `initial`.
Log-form edge rows are not used here: the ramp of some fillings passes
through shapes near 0 and 1, where the cleared equations stay regular
and log rows stall.

The same Newton loop, `_damped_newton` stepping by pinned solves, is the
whole corrector of the predictor-corrector tracing of the curve along
which one chosen cusp stays complete; it accepts a point by its
working-precision residual over every row, dropped ones included.  The
predictor follows the unit tangent dz/|dz|, in mpmath, and lands about
2^-21 off the curve, so a Jacobian good to 2^-53 serves the first steps
as well as an exact one: with the exact residual, each step gains about
53 bits whichever arithmetic solves it (mixed-precision iterative
refinement; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., ch. 12).  The first two steps of a point factor the kept rows'
Jacobian at the point rounded to Python complex and solve the exact
values rounded to complex, reaching about 2^-42 and then 2^-84; every
later step factors the block-form Jacobian.  A point costs 3
working-precision factorisations at 256 bits (tangent included) and 4
at 512.  A complex factorisation that fails leaves the working-precision
step in its place.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import random
import weakref
from dataclasses import dataclass

import mpmath
from mpmath import mp

from .blockform import (aligned, back_substitute, block, block_factor, block_solve, block_step,
                        block_width, dot, exceeds, first_largest, quotient_root, squared,
                        to_mpc)
from .holonomy import (Point, ShapeAssignment, SignedMonomial, cusp_parameter,
                       evaluate_cusp_parameter, in_guard_band, log_gradient, mu, sum_gradient,
                       sum_value, term_value)
from .manifold import IdealTriangulation, is_int


class SolveError(RuntimeError):
    """Newton or continuation failed to produce a certified solution."""


class KernelDimensionError(SolveError):
    """The completeness locus is not a curve at this point."""


REGULAR_SHAPE = mpmath.mpc(0.5, 0.8660254037844386)
# Newton steps never move a shape within this distance of 0 or 1
GUARD = 1e-9
# a machine-precision Newton solve (a root of the log system, a filling ramp
# step) must reach this residual: the Euclidean norm of the log rows, or the
# largest residual of the cleared and filling rows
FLOAT_TOL = 1e-10


class PolynomialEquation:
    """A monomial equation M = 1 in cleared polynomial form: with M =
    sign T+ / T- for the products T+ and T- of its positive and negative
    exponents, the row sign T+ - T- = 0.

    `value`, `gradient` and `residual` are in the scalar type of z, mpmath
    rounded once.  At an mpmath `Point`, `row` and `rhs` give the gradient
    and the negated value in block form for the solvers, unrounded, and
    the residual comes from the same two memoised products."""

    def __init__(self, monomial: SignedMonomial):
        self.monomial = monomial
        self.cleared = monomial.cleared()
        self._plus, self._minus = monomial.split()

    def value(self, z: list):
        return sum_value(self.cleared.terms, z)

    def gradient(self, z: list) -> list:
        return sum_gradient(self.cleared.terms, z)

    def row(self, z: list) -> list:
        """The gradient as the solvers take it: at an mpmath `Point` in
        block form (`Point.gradient_forms`), never rounded; elsewhere
        `gradient`."""
        z = Point(z)
        return z.gradient_forms(self.cleared.terms) if z.blocks else self.gradient(z)

    def rhs(self, z: list):
        """-value as the solvers take it: at an mpmath `Point` the exact
        block form of T- - sign T+; elsewhere -value."""
        z = Point(z)
        if not z.blocks:
            return -self.value(z)
        (re, im, e), _ = self._forms(z)
        return -re, -im, e

    def _forms(self, z: Point) -> tuple:
        """(sign T+ - T-, T-) at an mpmath `Point` in block form, exactly,
        from the Point's memoised products."""
        c, d, f = minus = z.term_form(1, *self._minus)
        return aligned([z.term_form(self.monomial.sign, *self._plus), (-c, -d, f)]), minus

    def _squares(self, z: Point) -> tuple:
        """(|sign T+ - T-|^2, |T-|^2) at an mpmath `Point`, exactly, as pairs
        (m, e) for m 2^e: their quotient is |M - 1|^2."""
        (re, im, e), (a, b, f) = self._forms(z)
        return (re * re + im * im, 2 * e), (a * a + b * b, 2 * f)

    def residual(self, z: list):
        """|M - 1|: at an mpmath `Point` the root of the quotient of the
        exact `_squares`, rounded once (`quotient_root`); elsewhere in the
        scalar type of z.  For M = 1 it is 0, and for M = -1 it is 2."""
        z = Point(z)
        if z.blocks:
            return quotient_root(*self._squares(z))
        m = self.monomial
        return abs(term_value(m.sign, m.a, m.b, z) - 1)


def _machine(values) -> bool:
    """Whether `values` are in machine precision (Python complex or float)
    rather than mpmath at the current precision.  The type is read off the
    first entry that is not an int (a log gradient holds the int 0 where
    its row skips a tetrahedron)."""
    return isinstance(next((v for v in values if not isinstance(v, int)), None), (complex, float))


def _scalar_ops(values) -> tuple:
    """log, pi and nearest-integer rounding in the scalar type of `values`
    (`_machine`)."""
    if _machine(values):
        return cmath.log, math.pi, round
    return mp.log, mp.pi, mp.nint


class FillingEquation:
    """p log mu(m) + q log mu(l) = target, with branch continuity.

    `reference` holds the analytically-continued (u, v) at the last
    accepted point; principal logs are shifted by multiples of 2 pi i to
    stay nearest the reference.  Like the evaluator, it works in the
    scalar type of z: mpmath, or Python complex for the filling ramp.

    `tie` is the window 2^-(p // 2) of a structure filled at p bits, or
    None (`_gluing_rows` given no precision).  At an mpmath `Point` a principal log whose imaginary
    part lies within it of -pi is read as +pi, so a dilation that is real
    up to round-off (a flat filling's) gets the same branch offsets at
    every precision, and the 2p polish reads them as the p solve did.  The
    machine-precision ramp carries continued logs and never applies it.
    """

    def __init__(self, p: int, q: int, mu_m: SignedMonomial, mu_l: SignedMonomial, label: str,
                 tie):
        self.p, self.q = p, q
        self.mu_m, self.mu_l = mu_m, mu_l
        self.label = label
        self.tie = tie
        self.target = mp.mpc(0)
        self.reference = (mp.mpc(0), mp.mpc(0))

    def _branches(self, z: list) -> tuple:
        """Principal logs of (mu_m, mu_l) at z, the whole turns that carry
        each nearest its reference, and pi in the scalar type of z.  At an
        mpmath `Point` the logs are the Point's memo (`Point.principal_log`),
        each read by the `tie` rule."""
        log, pi, nint = _scalar_ops(z)
        z = Point(z)
        if z.blocks:
            principal = [z.principal_log(m.sign, m.a, m.b) for m in (self.mu_m, self.mu_l)]
            if self.tie is not None:
                principal = [w + 2j * pi if w.imag + pi < self.tie else w for w in principal]
        else:
            principal = [log(term_value(m.sign, m.a, m.b, z)) for m in (self.mu_m, self.mu_l)]
        turns = [nint((ref - w).imag / (2 * pi)) for ref, w in zip(self.reference, principal)]
        return principal, turns, pi

    def logs(self, z: list) -> tuple:
        principal, turns, pi = self._branches(z)
        return tuple(w + 2j * pi * k for w, k in zip(principal, turns))

    def value(self, z: list):
        u, v = self.logs(z)
        return self.p * u + self.q * v - self.target

    def gradient(self, z: list) -> list:
        gu = log_gradient(self.mu_m.a, self.mu_m.b, z)
        gv = log_gradient(self.mu_l.a, self.mu_l.b, z)
        return [self.p * a + self.q * b for a, b in zip(gu, gv)]

    def residual(self, z: list):
        return abs(self.value(z))

    row = gradient

    def rhs(self, z: list):
        return -self.value(z)

    def branch_offsets(self, z: list) -> tuple[int, int]:
        return tuple(int(k) for k in self._branches(z)[1])


# triangulation -> {monomial: PolynomialEquation}, dropped with the triangulation
_EQUATIONS = weakref.WeakKeyDictionary()


def _cleared_rows(tri: IdealTriangulation, peripheral) -> list:
    """The cleared rows of a system, in a new list: one `PolynomialEquation`
    per edge monomial, then one per monomial of `peripheral`.  Each is built
    once per triangulation and monomial, and lives as long as `tri`."""
    memo = _EQUATIONS.setdefault(tri, {})
    rows = []
    for m in (*tri.edge_equations(), *peripheral):
        if m not in memo:
            memo[m] = PolynomialEquation(m)
        rows.append(memo[m])
    return rows


def _gluing_rows(tri: IdealTriangulation, fillings, precision_bits: int | None = None) -> list:
    """The rows of the complete or filled structure: the edge rows, mu(m)
    and mu(l) of each complete cusp, then one `FillingEquation` for each
    filled cusp (fillings as `_check_fillings` returns them), with the
    `tie` of a structure filled at `precision_bits` when given."""
    tie = None if precision_bits is None else mp.mpf(2) ** -(precision_bits // 2)
    peripheral, fill_rows = [], []
    for cusp, f in zip(tri.cusps, fillings):
        mu_m, mu_l = mu(tri, cusp.meridian), mu(tri, cusp.longitude)
        if f is None:
            peripheral += [mu_m, mu_l]
        else:
            fill_rows.append(FillingEquation(*f, mu_m, mu_l, label=f"fill:{cusp.name}", tie=tie))
    return _cleared_rows(tri, peripheral) + fill_rows


def _check_fillings(tri: IdealTriangulation, fillings) -> list:
    """One entry per cusp: None for a complete cusp ('complete' or None
    given), else the coprime pair of ints (p, q); anything else raises
    ValueError.  Fillings come from this argument alone: a triangulation
    file carries none."""
    if len(fillings) != len(tri.cusps):
        raise ValueError("one filling entry per cusp required")
    cleaned = []
    for f in fillings:
        if f is None or f == "complete":
            cleaned.append(None)
        elif (isinstance(f, (tuple, list)) and len(f) == 2 and all(map(is_int, f))
              and math.gcd(*f) == 1):
            cleaned.append(tuple(f))
        else:
            raise ValueError(f"a filling is 'complete', None or a coprime pair of ints, got {f!r}")
    return cleaned


@dataclass
class SolveResult:
    """A solved structure.

    `iterations` counts the Newton steps taken at working precision: the
    polish of the accepted start, or for a filled solve its one filled
    polish.  Machine-precision steps (start search, filling ramp) are not
    counted.  `restarts_used` is the index of the accepted start in the
    schedule: `initial` first when given, then the regular shape, then the
    seeded perturbations; 0 means the first start was accepted.  For a
    filled solve, `seed` and `restarts_used` describe its own start
    search: the float root its ramp started from.
    """

    shapes: ShapeAssignment
    residual: mpmath.mpf
    geometric: bool
    iterations: int
    success: bool
    seed: int
    restarts_used: int = 0
    degenerate: bool = False
    branch_offsets: tuple = ()
    core_translations: tuple = ()
    notes: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        digits = printed_digits(self.shapes.precision_bits)
        return {
            "shapes": [printed_complex(z, digits) for z in self.shapes.z],
            "precision_bits": self.shapes.precision_bits,
            "residual": mp.nstr(self.residual, 8),
            "geometric": self.geometric,
            "iterations": self.iterations,
            "success": self.success,
            "seed": self.seed,
            "restarts_used": self.restarts_used,
            "degenerate": self.degenerate,
            "branch_offsets": [list(b) for b in self.branch_offsets],
            "core_translations": [printed_complex(c, 8) for c in self.core_translations],
            "notes": list(self.notes),
        }


def printed_digits(precision_bits: int) -> int:
    """Decimal digits printed for a value computed at precision_bits."""
    return max(8, int(precision_bits * 0.3010) - 2)


def printed_complex(value, digits: int) -> dict:
    """A complex value as reports print it: real and imaginary parts to
    `digits` significant digits."""
    return {"re": mp.nstr(value.real, digits), "im": mp.nstr(value.imag, digits)}


def _size(v):
    """|re v| + |im v|, which lies between |v| and sqrt(2) |v|."""
    return abs(v.real) + abs(v.imag)


def _lu_factor(a: list[list]) -> tuple[list[list], list]:
    """(lu, perm): the square matrix A of Python complex entries factored as
    P A = L U by Gaussian elimination with partial pivoting, in place.  The
    pivot is the entry of largest re^2 + im^2, so no square root is taken.
    A pivot p with |re p| + |im p| at most eps * |A|_1 raises
    ZeroDivisionError, where eps = 2^-52 is the unit roundoff of a float
    and |A|_1 the largest column sum of |re| + |im| over A; both measures
    lie within a factor sqrt(2) of the modulus they stand for.  Each
    multiplier is stored in the row it eliminated and moves with that row's
    swaps, so lu[k] holds the row that ends at position k, and perm[k] its
    index in A.  `block_factor` is the same elimination on block forms.
    """
    n = len(a)
    tol = 2.0 ** -52 * max(sum(_size(row[j]) for row in a) for j in range(n))
    perm = list(range(n))
    for col in range(n):
        squares = [v.real * v.real + v.imag * v.imag
                   for v in (a[k][col] for k in range(col, n))]
        piv = col + squares.index(max(squares))
        if _size(a[piv][col]) <= tol:
            raise ZeroDivisionError("numerically singular square system")
        a[col], a[piv] = a[piv], a[col]
        perm[col], perm[piv] = perm[piv], perm[col]
        top = a[col]
        for k in range(col + 1, n):
            row = a[k]
            f = row[col] = row[col] / top[col]
            for c in range(col + 1, n):
                row[c] -= f * top[c]
    return a, perm


def _lu_solve(factor: tuple[list[list], list], b: list) -> list:
    """x with A x = b from `_lu_factor`'s (lu, perm) of A, in Python
    complex.  Every row swap is applied to b first, then forward
    substitution replays the stored multipliers column by column: the same
    operations, in the same order, as eliminating the augmented matrix
    [A | b], so the bits are those of that elimination."""
    lu, perm = factor
    n = len(lu)
    y = [b[i] for i in perm]
    for col in range(n):
        for k in range(col + 1, n):
            y[k] -= lu[k][col] * y[col]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum(lu[i][j] * x[j] for j in range(i + 1, n))) / lu[i][i]
    return x


def _factor(a: list[list]):
    """solve(b), the x with A x = b, from one factorisation of the square
    matrix A in the number type of its entries.  A Python complex A is
    factored by `_lu_factor` and every solve runs `_lu_solve` in Python
    complex: each entry of b is taken into complex first, a block form
    rounded at the working precision (`to_mpc`) and then to complex.  Any
    other A, block forms or mpmath complex, is taken exactly into block
    form and factored by `block_factor` with 20 guard bits; every solve
    runs `block_solve` on b taken exactly into block form, with the same
    guard, and rounds each entry of x to mpmath once.  A singular A raises
    ZeroDivisionError."""
    if _machine(itertools.chain(*a)):
        lu = _lu_factor(a)
        return lambda b: _lu_solve(lu, [complex(to_mpc(v) if type(v) is tuple else v)
                                        for v in b])
    with mp.extraprec(20):
        blocks = block_factor([[block(v) for v in row] for row in a])

    def solve(b: list) -> list:
        with mp.extraprec(20):
            return [to_mpc(v) for v in block_solve(blocks, [block(v) for v in b])]
    return solve


def least_squares(rows: list[list], rhs: list) -> list:
    """Least-squares solution x of rows . x = rhs, in the scalar type of
    the system: mpmath at the working precision, or machine precision (the
    type of the first entry of rhs or rows that is not an int).

    Both solve the normal equations N x = rows^H rhs with one `_factor`,
    and a singular N raises ZeroDivisionError; the callers' systems have
    full column rank.  In machine precision N and rows^H rhs are formed in
    Python complex, with the upper triangle of N summed and the lower one
    its conjugate, which is bit-identical to summing all of N under
    round-to-nearest.  On mpmath, with 20 guard bits, every entry is taken
    exactly into block form, each entry of the upper triangle of N and of
    rows^H rhs is the exact sum of exact products cut once to
    W = wp + wp // 16 bits (wp the guarded precision), and the lower
    triangle is its conjugate; no mpmath operator runs.
    """
    n = len(rows[0])
    if _machine(itertools.chain(rhs, *rows)):
        conj = [[v.conjugate() for v in row] for row in rows]
        normal = []
        for i in range(n):
            normal.append([normal[j][i].conjugate() for j in range(i)]
                          + [sum(c[i] * r[j] for c, r in zip(conj, rows)) for j in range(i, n)])
        b = [sum(c[i] * v for c, v in zip(conj, rhs)) for i in range(n)]
    else:
        with mp.extraprec(20):
            width = block_width()
            columns = list(zip(*([block(v) for v in row] for row in rows)))
            conj = [[(re, -im, e) for re, im, e in column] for column in columns]
            target = [block(v) for v in rhs]
            normal = []
            for i in range(n):
                normal.append([(re, -im, e) for re, im, e in (normal[j][i] for j in range(i))]
                              + [dot(conj[i], columns[j], width) for j in range(i, n)])
            b = [dot(conj[i], target, width) for i in range(n)]
    return _factor(normal)(b)


def pinned_factor(rows: list[list], pin: int):
    """The solver of the square pinned system of the n - 1 rows of an
    n-column Jacobian that `curve_pin` keeps: without the pin column the
    system is square, and it is factored once (`_factor`), in the number
    type of the rows.  Returns solve(rhs), the x with x[pin] = 0 and
    rows . x = rhs, in that same type for any rhs: Python complex on
    complex rows, the zero at the pin 0j, and mpmath otherwise, the zero
    mp.mpc(0); every solve reuses the one factorisation.  Corrector steps,
    curve velocities and curve second derivatives all solve this system.
    A singular pinned system raises SolveError: there the pinned
    coordinate does not parametrize the curve."""
    free = [i for i in range(len(rows[0])) if i != pin]
    if len(rows) != len(free):
        raise ValueError(f"{len(rows)} rows for {len(free)} unpinned columns")
    square = [[row[i] for i in free] for row in rows]
    zero = 0j if _machine(itertools.chain(*square)) else mp.mpc(0)
    try:
        factored = _factor(square)
    except ZeroDivisionError as exc:
        raise SolveError(f"coordinate {pin} is not a parameter for the curve here") from exc

    def solve(rhs: list) -> list:
        u = factored(rhs)
        u.insert(pin, zero)
        return u
    return solve


def curve_velocity(rows: list[list], pin: int, solve=None) -> tuple[list, list]:
    """Velocity dz with dz[pin] = 1 of the curve whose kept Jacobian rows
    are `rows`, and its unit tangent dz/|dz|, from one pinned solve:
    `solve` when the caller has already factored rows (`pinned_factor`)."""
    solve = solve or pinned_factor(rows, pin)
    column = [row[pin] for row in rows]
    dz = solve([(-v[0], -v[1], v[2]) if type(v) is tuple else -v for v in column])
    dz[pin] = mp.mpc(1)
    norm = mp.sqrt(sum(abs(c) ** 2 for c in dz))
    return dz, [c / norm for c in dz]


def _residual(rows, z):
    """The largest residual of the rows at z.  At an mpmath `Point` the rows
    whose residual is `PolynomialEquation`'s compare the quotients of their
    exact `_squares` by cross-multiplication, and one square root is taken,
    of the largest: `quotient_root` grows with the quotient, so it is the
    largest of their residuals, bit for bit."""
    z = Point(z)
    if not z.blocks:
        return max(e.residual(z) for e in rows)
    largest, others = None, []
    for eq in rows:
        if type(eq).residual is not PolynomialEquation.residual:
            others.append(eq.residual(z))
            continue
        x = eq._squares(z)
        if largest is None:
            largest = x
            continue
        (m, e), (n, f) = x
        (m0, e0), (n0, f0) = largest
        if exceeds((m * n0, e + f0), (m0 * n, e0 + f)):
            largest = x
    if largest is not None:
        others.append(quotient_root(*largest))
    return max(others)


def _damped_newton(z, residual, step, tol, max_iter):
    """The Newton loop of every solve and of the curve corrector: take
    step(z), halved up to 12 times until it lowers residual(z) with every
    shape outside the guard band around 0 and 1; a step that cannot be
    solved ends the loop.  Every trial point is a `Point`, so at mpmath
    points the step from an accepted point reuses the products its
    residual memoised.  Returns (z, iterations, residual)."""
    z = Point(z)
    best = residual(z)
    it = 0
    while it < max_iter and best > tol:
        it += 1
        try:
            delta = step(z)
        except (ZeroDivisionError, ValueError, SolveError):
            break
        lam = 1.0
        for _ in range(12):
            z_try = Point([zi + lam * d for zi, d in zip(z, delta)])
            lam /= 2
            if any(in_guard_band(v, GUARD) for v in z_try):
                continue
            r_try = residual(z_try)
            if r_try < best:
                z, best = z_try, r_try
                break
        else:
            break
    return z, it, best


def _newton_tol(precision_bits: int) -> mpmath.mpf:
    return mp.mpf(2) ** int(-0.92 * precision_bits)


def _newton(rows, z, tol, max_iter=80):
    """Damped least-squares Newton on the cleared and filling rows, in the
    scalar type of z (mpmath or Python complex).  Returns (z, iterations,
    residual)."""
    def step(z):
        return least_squares([e.row(z) for e in rows], [e.rhs(z) for e in rows])

    return _damped_newton(z, lambda z: _residual(rows, z), step, tol, max_iter)


def _regular(rows, z) -> bool:
    """Whether the normal equations of the rows at z factor: one
    least-squares step, which raises ZeroDivisionError when they are
    singular."""
    try:
        least_squares([e.row(z) for e in rows], [e.rhs(z) for e in rows])
    except ZeroDivisionError:
        return False
    return True


def _initial_guesses(n, seed, restarts):
    rng = random.Random(seed)
    yield [mp.mpc(REGULAR_SHAPE) for _ in range(n)]
    for _ in range(restarts):
        yield [
            mp.mpc(REGULAR_SHAPE)
            + mp.mpc(rng.uniform(-0.8, 0.8), rng.uniform(-0.55, 0.9))
            for _ in range(n)
        ]


def _log_rows(tri: IdealTriangulation, eqs) -> list[tuple]:
    """The complete-structure gluing system in log form, read off its
    cleared rows `eqs` (edges first, then the cusp rows).

    One (a, b, shift, principal) per row, whose value at z is
    sum a_i Log z_i + b_i Log(1 - z_i) + shift, reduced to the principal
    branch when `principal` is set.  Edge rows are corner angle sums less
    the target 2 pi i; an E2 corner contributes the i pi of its sign.
    Cusp rows are the principal Log of both peripheral dilations.
    """
    rows = []
    for i, eq in enumerate(eqs):
        m = eq.monomial
        if i < len(tri.edges):
            e2 = sum(corner.kind == "E2" for corner in tri.edges[i].corners)
            rows.append((m.a, m.b, complex(0, math.pi * (e2 - 2)), False))
        else:
            rows.append((m.a, m.b, complex(0, math.pi if m.sign < 0 else 0), True))
    return rows


def _log_values(rows, z: list) -> list:
    log_z = [cmath.log(v) for v in z]
    log_1z = [cmath.log(1 - v) for v in z]
    values = []
    for a, b, shift, principal in rows:
        v = shift + sum(ai * lz + bi * l1 for ai, bi, lz, l1 in zip(a, b, log_z, log_1z))
        if principal:
            v -= complex(0, 2 * math.pi * round(v.imag / (2 * math.pi)))
        values.append(v)
    return values


def _float_search(rows, z: list):
    """Gauss-Newton on the log system from one start, in machine precision.
    Returns the root, or None when the start does not reach FLOAT_TOL."""
    def residual(z):
        return math.sqrt(sum(abs(v) ** 2 for v in _log_values(rows, z)))

    def step(z):
        grads = [log_gradient(a, b, z) for a, b, _, _ in rows]
        return least_squares(grads, [-v for v in _log_values(rows, z)])

    z, _, res = _damped_newton(z, residual, step, FLOAT_TOL, 60)
    return z if res <= FLOAT_TOL else None


def _filling_ramp(name: str, rows, z: list) -> list:
    """Carry the filled rows' target from 0 at the complete structure z to
    2 pi i, in machine precision; returns the float point at 2 pi i.

    Each step solves for target 2 pi i t by `_newton` on Python complex to
    FLOAT_TOL.  dt starts at 1/8, doubles after an accepted step
    up to 1/4 and halves after a rejected one; a step is rejected when
    Newton misses FLOAT_TOL or a log moves by 2.5 rad or more, which
    keeps the branch continuous.  Below dt = 2^-14 the ramp stalls.
    """
    fill_eqs = [e for e in rows if isinstance(e, FillingEquation)]
    for fe in fill_eqs:
        fe.reference = fe.logs(z)
    t, dt = 0.0, 1 / 8
    while t < 1:
        t_next = min(1.0, t + dt)
        for fe in fill_eqs:
            fe.target = 2j * math.pi * t_next
        z_try, _, res = _newton(rows, z, FLOAT_TOL)
        jump = max(abs((w - ref).imag) for fe in fill_eqs
                   for w, ref in zip(fe.logs(z_try), fe.reference))
        if res <= FLOAT_TOL and jump < 2.5:
            z, t = z_try, t_next
            dt = min(dt * 2, 1 / 4)
            for fe in fill_eqs:
                fe.reference = fe.logs(z)
        else:
            dt /= 2
            if dt < 2 ** -14:
                raise SolveError(
                    f"{name!r}: filling continuation stalled at t={mp.nstr(mp.mpf(t), 6)} "
                    "(out of continuation range or degenerating filling)"
                )
    return z


def _start_points(tri: IdealTriangulation, eqs, seed: int, restarts: int,
                  initial: ShapeAssignment | None):
    """Start points for the polish or the filling ramp, in schedule order:
    `initial` as given, then the float root of the log form of the complete
    rows `eqs` from each _initial_guesses start, or None where that search
    found no root."""
    if initial is not None:
        yield list(initial.z)
    rows = _log_rows(tri, eqs)
    for guess in _initial_guesses(tri.n_tet, seed, restarts):
        yield _float_search(rows, [complex(v) for v in guess])


def _certify(rows, z, precision_bits):
    """Re-evaluate the multiplicative residual at doubled precision."""
    with mp.workprec(2 * precision_bits):
        return _residual(rows, [mp.mpc(v) for v in z])


def solve_complete(tri: IdealTriangulation, precision_bits: int = 256,
                   seed: int = 0, restarts: int = 32,
                   initial: ShapeAssignment | None = None) -> SolveResult:
    """Find the complete structure: all edge equations and all peripheral
    dilations equal to 1.  Returns the first geometric solution found over
    the restart schedule; if only non-geometric solutions turn up, the best
    one is returned with geometric=False.

    `initial` (e.g. a lower-precision solution to polish) is tried before
    the regular-shape guess and its randomized perturbations.
    """
    with mp.workprec(precision_bits + 30):
        eqs = _gluing_rows(tri, [None] * len(tri.cusps))
        success_tol = mp.mpf(2) ** (-precision_bits // 2)
        flat_tol = mp.mpf(2) ** (-precision_bits // 8)

        singular = 0

        def polish(z0, restart_index):
            nonlocal singular
            z0 = Point([mp.mpc(v) for v in z0])
            z, it, res = _newton(eqs, z0, _newton_tol(precision_bits))
            if res >= success_tol:
                return None
            if z is z0 and not _regular(eqs, z):
                # a start that no step moved is a root only if the system
                # has full column rank there
                singular += 1
                return None
            return z, it, all(v.imag > flat_tol for v in z), restart_index

        best = deferred = None
        for restart_index, z0 in enumerate(_start_points(tri, eqs, seed, restarts, initial)):
            if z0 is None:
                continue
            if not all(v.imag > 0 for v in z0):
                # polished only if no geometric root turns up
                deferred = deferred or (z0, restart_index)
                continue
            found = polish(z0, restart_index)
            if found is not None and (best is None or found[2]):
                best = found
                if found[2]:
                    break
        if best is None and deferred is not None:
            best = polish(*deferred)
        if best is None:
            raise SolveError(
                f"{tri.name!r}: complete-structure Newton did not converge "
                f"within {restarts} restarts"
                + (f"; {singular} starts were refused as rank-deficient roots" if singular else "")
            )
        z, iterations, geometric, restart_index = best
        notes = () if geometric else ("complete solution is non-geometric (some Im z <= 0)",)
        res2 = _certify(eqs, z, precision_bits)
        return SolveResult(
            shapes=ShapeAssignment(tuple(mp.mpc(v) for v in z), precision_bits),
            residual=res2, geometric=geometric, iterations=iterations,
            success=res2 < success_tol, seed=seed, restarts_used=restart_index,
            notes=notes,
        )


def solve_filled(tri: IdealTriangulation, fillings, precision_bits: int = 256,
                 seed: int = 0, restarts: int = 32) -> SolveResult:
    """Solve the structure with `fillings` at `precision_bits`.  `fillings`
    has one entry per cusp: 'complete' or None, or a coprime pair of ints
    (p, q).

    With every cusp complete, this is `solve_complete`.  Otherwise the
    start search of `solve_complete` runs over the same schedule, in
    machine precision, and its first float root with every Im z > 0 (else
    its first root, noted as non-geometric) is the complete structure a
    machine-precision continuation fills: it ramps each filling target from
    0 to 2 pi i while carrying log branches, and the end point is polished
    once at the working precision.  A start search with no root, a stalled
    ramp or a failed polish raises SolveError; no other start is tried.
    """
    fillings = _check_fillings(tri, fillings)
    if all(f is None for f in fillings):
        return solve_complete(tri, precision_bits, seed, restarts)
    with mp.workprec(precision_bits + 30):
        eqs = _gluing_rows(tri, [None] * len(tri.cusps))
        found = None
        for index, root in enumerate(_start_points(tri, eqs, seed, restarts, None)):
            if root is None:
                continue
            if all(v.imag > 0 for v in root):
                found = index, root
                break
            found = found or (index, root)
        if found is None:
            raise SolveError(f"{tri.name!r}: complete-structure start search did not converge "
                             f"within {restarts} restarts")
        restart_index, root = found
        notes = ([] if all(v.imag > 0 for v in root)
                 else ["complete solution is non-geometric (some Im z <= 0)"])
        rows = _gluing_rows(tri, fillings, precision_bits)
        fill_eqs = [e for e in rows if isinstance(e, FillingEquation)]
        success_tol = mp.mpf(2) ** (-precision_bits // 2)
        flat_tol = mp.mpf(2) ** (-precision_bits // 8)

        z_ramp = _filling_ramp(tri.name, rows, root)
        for fe in fill_eqs:
            fe.reference = tuple(mp.mpc(w) for w in fe.logs(z_ramp))
        z, it, res2 = _polish_filled(tri, rows, [mp.mpc(v) for v in z_ramp], precision_bits)
        geometric = all(v.imag > flat_tol for v in z)
        offsets = tuple(fe.branch_offsets(z) for fe in fill_eqs)
        cores = []
        degenerate = False
        for fe in fill_eqs:
            r, s = _core_curve(fe.p, fe.q)
            u, v = fe.logs(z)
            core = r * u + s * v
            cores.append(core)
            if abs(core.real) < flat_tol:
                degenerate = True
                notes.append(
                    f"{fe.label}: core translation has zero length "
                    "(exceptional or non-hyperbolic filling)"
                )
        shapes = ShapeAssignment(tuple(mp.mpc(v) for v in z), precision_bits)
        if shapes.is_degenerate():
            degenerate = True
            notes.append("shapes degenerate (coordinate near 0 or 1)")
        if all(abs(v.imag) < flat_tol for v in z):
            degenerate = True
            notes.append("flat solution (all shapes real)")
        if not geometric:
            notes.append("filled solution is non-geometric (some Im z <= 0)")
        return SolveResult(
            shapes=shapes, residual=res2, geometric=geometric,
            iterations=it, success=res2 < success_tol, seed=seed,
            restarts_used=restart_index, degenerate=degenerate,
            branch_offsets=offsets, core_translations=tuple(cores),
            notes=tuple(notes),
        )


def doubled_filling(tri: IdealTriangulation, fillings, filled: SolveResult) -> SolveResult:
    """`filled`, as `solve_filled` returns it for these fillings, polished
    once at twice its precision on its own rows: the filling targets 2 pi i
    are taken at 2p, and the log branches stay as `filled` left them, with
    no second ramp.  The result is `filled` with the 2p shapes, iterations
    and residual.  Raises SolveError unless the polish succeeds."""
    bits = 2 * filled.shapes.precision_bits
    with mp.workprec(bits + 30):
        rows = _gluing_rows(tri, _check_fillings(tri, fillings), filled.shapes.precision_bits)
        fill_eqs = [e for e in rows if isinstance(e, FillingEquation)]
        z = Point([mp.mpc(v) for v in filled.shapes.z])
        for fe, turns in zip(fill_eqs, filled.branch_offsets):
            principal, _, pi = fe._branches(z)
            fe.reference = tuple(w + 2j * pi * k for w, k in zip(principal, turns))
        z, it, res2 = _polish_filled(tri, rows, z, bits)
        if res2 >= mp.mpf(2) ** (-bits // 2):
            raise SolveError(f"{tri.name!r}: the {bits}-bit polish of the filled structure "
                             "did not succeed")
        return dataclasses.replace(
            filled, shapes=ShapeAssignment(tuple(mp.mpc(v) for v in z), bits),
            residual=res2, iterations=it)


def _polish_filled(tri: IdealTriangulation, rows, z: list, precision_bits: int) -> tuple:
    """Newton on the filled rows from the mpmath shapes z (a `Point` keeps
    its memo) to the targets 2 pi i, at the working precision, each filling
    row's branch reference already set.
    Returns (z, iterations, residual re-evaluated at 2 precision_bits);
    raises SolveError when the polish misses the residual target."""
    fill_eqs = [e for e in rows if isinstance(e, FillingEquation)]
    for fe in fill_eqs:
        fe.target = 2j * mp.pi
    z, it, res = _newton(rows, z, _newton_tol(precision_bits))
    if res >= mp.mpf(2) ** (-precision_bits // 2):
        raise SolveError(
            f"{tri.name!r}: polish of the filled structure "
            f"{', '.join(f'{fe.label}=({fe.p},{fe.q})' for fe in fill_eqs)} "
            f"stopped at residual {mp.nstr(res, 3)}"
        )
    return z, it, _certify(rows, z, precision_bits)


def _core_curve(p: int, q: int) -> tuple[int, int]:
    """Integers (r, s) with p*s - q*r = 1: a curve dual to the filled slope."""
    # extended euclid on (p, q)
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    # old_s*p + old_t*q = gcd = +-1
    g = old_s * p + old_t * q
    return (-old_t * g, old_s * g)


def completeness_system(tri: IdealTriangulation, cusp_index: int):
    """Cleared equations cutting the locus where one cusp stays complete:
    every edge equation plus mu(meridian) = 1 for the chosen cusp."""
    return _cleared_rows(tri, [mu(tri, tri.cusps[cusp_index].meridian)])


def system_jacobian(eqs, z: list):
    """The Jacobian of the equations at z, in the scalar type of z: at an
    mpmath point each entry rounded once (`holonomy.sum_gradient`)."""
    z = Point(z)
    return [e.gradient(z) for e in eqs]


def _first_tied(squares: list) -> int:
    """The index of the first of the exact squares (m, e) that ties with the
    largest: within a relative 2^-39 of it, a modulus within about 2^-40."""
    s, e = squares[first_largest(squares)]
    tie = (s << 39) - s, e - 39
    return next(c for c, x in enumerate(squares) if not exceeds(tie, x))


def numerical_kernel(rows: list[list], precision_bits: int) -> tuple[list, tuple]:
    """(x, kept) of a complex matrix with a one-dimensional kernel and rank
    at least 1: the kernel vector in block form, 1 at its free column, and
    the pivot rows in their original order.

    The rows are taken exactly into block form and eliminated with complete
    pivoting by `block_step` at the current precision.  Each pivot is the
    first entry, row by row, that ties with the largest square
    (`_first_tied`), so equal moduli (berge's regular tetrahedra) keep the
    same rows at every precision from 11 bits.  The elimination stops once
    the largest remaining entry is at most the cut, 2^(-p // 4) times the
    largest entry of the matrix.  Complete pivoting reveals the rank in
    practice but not in the worst case (on Kahan's matrix the last pivot
    stays far above the smallest singular value), so only a clean decision
    is taken: every pivot at least 4 times the cut and the stopping entry
    at most a quarter of it, compared on exact squares.  Any other matrix,
    a kernel of another dimension and rank 0 raise KernelDimensionError.

    The cut is half the largest entry for p <= 4, where nothing is clean, a
    quarter of it for p = 5 to 8, where 4 * cut is the largest entry, and an
    eighth for p = 9 to 12.  So below 9 bits a clean decision passes only a
    first pivot equal to the largest entry, and one that only ties with it
    is refused: berge's c-knotted curve (four regular tetrahedra) at 5 to 8
    bits.
    """
    width = block_width()
    a = [[block(v) for v in row] for row in rows]
    m, n = len(a), len(a[0])
    squares = [squared(v) for row in a for v in row]
    s, e = squares[first_largest(squares)]
    cut = s, e + 2 * (-precision_bits // 4)
    order, cols = list(range(m)), list(range(n))
    pivots, inverses, rest = [], [], (0, 0)
    for k in range(min(m, n)):
        cells = [(i, j) for i in range(k, m) for j in range(k, n)]
        squares = [squared(a[i][j]) for i, j in cells]
        largest = squares[first_largest(squares)]
        if not exceeds(largest, cut):
            rest = largest
            break
        c = _first_tied(squares)
        pivots.append(squares[c])
        i, j = cells[c]
        a[k], a[i] = a[i], a[k]
        order[k], order[i] = order[i], order[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        cols[k], cols[j] = cols[j], cols[k]
        inverses.append(block_step(a, k, width))
    rank = len(pivots)
    margin = cut[0], cut[1] + 4
    if exceeds((rest[0], rest[1] + 4), cut) or any(exceeds(margin, p) for p in pivots):
        raise KernelDimensionError(
            f"kernel dimension {n - rank} undecided at the rank cut; pivots "
            + ", ".join(mp.nstr(quotient_root(p, (1, 0)), 5) for p in pivots)
            + f"; remaining entry {mp.nstr(quotient_root(rest, (1, 0)), 5)}"
            + f"; cut {mp.nstr(quotient_root(cut, (1, 0)), 5)}"
        )
    if n - rank != 1:
        raise KernelDimensionError(
            f"kernel dimension {n - rank} at the complete structure (expected 1)")
    if not rank:
        raise KernelDimensionError("rank 0 at the complete structure: no rows to keep")
    x = back_substitute(a, inverses, [(0, 0, 0)] * rank, [(0, 0, 0)] * rank + [(1, 0, 0)],
                        width)
    kernel = [None] * n
    for c, v in zip(cols, x):
        kernel[c] = v
    return kernel, tuple(sorted(order[:rank]))


def curve_pin(rows: list[list], precision_bits: int) -> tuple[int, tuple]:
    """(pin, kept) of the completeness curve whose Jacobian is `rows`: the
    one `numerical_kernel` of a curve checks that its kernel is
    one-dimensional and its rank n - 1 at least 1, the pinned coordinate is
    the first entry of its kernel vector that ties with the largest (the
    pivots' rule), and the n - 1 pivot rows are kept for every pinned solve
    along the curve."""
    x, kept = numerical_kernel(rows, precision_bits)
    return _first_tied([squared(v) for v in x]), kept


def trace_completeness_curve(tri: IdealTriangulation, complete_cusp: int,
                             n_points: int = 20, step: float = 1e-3,
                             precision_bits: int = 256, *, start: SolveResult):
    """Predictor-corrector continuation along the curve of structures
    keeping one cusp complete, from the complete structure `start`, which
    must be a successful solve at `precision_bits`.

    `curve_pin` runs once, at the start, to check that the locus is a
    curve and to choose the pinned coordinate and the kept rows.  Each
    predictor step follows the unit pinned velocity and lands about 2^-21
    off the curve.  `_damped_newton` with pinned steps on the kept rows
    corrects it, and accepts a point by its working-precision residual
    over every row.  Its first two steps factor the Jacobian at the point
    rounded to Python complex and solve the exact values rounded to
    complex (about 2^-42, then 2^-84); every later step, and any step whose
    complex factorisation fails, factors the block-form Jacobian.  The
    tangent at the corrected point and its cusp parameter are evaluated in
    mpmath from the memo its residual filled, which its sample keeps.

    Returns a list of (ShapeAssignment, cusp-parameter value) samples,
    the first being the complete structure itself.
    """
    if start.shapes.precision_bits != precision_bits:
        raise ValueError(f"start solved at {start.shapes.precision_bits} bits, "
                         f"not at the {precision_bits} asked for")
    if not start.success:
        raise SolveError("complete solve failed; cannot trace")
    with mp.workprec(precision_bits + 30):
        eqs = completeness_system(tri, complete_cusp)
        pair = cusp_parameter(tri, tri.cusps[complete_cusp])
        z = Point(start.shapes.z)
        pin, kept = curve_pin(system_jacobian(eqs, z), precision_bits)
        square = [eqs[i] for i in kept]

        def corrected(z_pred):
            """(z, iterations, residual) of the corrector from z_pred."""
            calls = itertools.count()

            def step(z):
                rhs = [e.rhs(z) for e in square]
                # from the 2^-21 prediction a Jacobian good to 2^-53 reaches
                # about 2^-42 and then 2^-84, as an exact one would; the
                # next step needs the exact one
                if next(calls) < 2:
                    machine = Point([complex(v) for v in z])
                    try:
                        return pinned_factor(system_jacobian(square, machine), pin)(rhs)
                    except (SolveError, ZeroDivisionError):
                        pass
                return pinned_factor([e.row(z) for e in square], pin)(rhs)

            return _damped_newton(z_pred, lambda z: _residual(eqs, z), step, newton_tol, 40)

        shapes0 = ShapeAssignment(z, precision_bits)
        samples = [(shapes0, evaluate_cusp_parameter(pair, shapes0))]
        h = mp.mpf(step)
        floor = mp.mpf(1e-8)
        newton_tol = _newton_tol(precision_bits)
        success_tol = mp.mpf(2) ** (-precision_bits // 2)
        for _ in range(n_points):
            tangent = curve_velocity([e.row(z) for e in square], pin)[1]
            while True:
                z_pred = [zi + h * ti for zi, ti in zip(z, tangent)]
                z_corr, _, res = corrected(z_pred)
                if res < success_tol:
                    break
                h = h / 2
                if h < floor:
                    raise SolveError("corrector diverged even at the minimum step")
            z = z_corr
            shapes = ShapeAssignment(z, precision_bits)
            if shapes.is_degenerate() or not shapes.is_geometric():
                raise SolveError("continuation left the geometric region")
            samples.append((shapes, evaluate_cusp_parameter(pair, shapes)))
        return samples
