"""Shared fixtures: parsed bundled triangulations, cached complete solves,
and seeded random shape sampling.

Random test points follow one convention everywhere: rational real and
imaginary parts of height at most 100, rejection-sampled away from the
degeneracy guard, from a fixed seed.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import cuspforge as cf
from cuspforge.solver import solve_complete

PRECISION = 256

# test-module constants (complete points, expected values) are built at full
# working precision
mp.prec = PRECISION + 44


@pytest.fixture(scope="session")
def whitehead():
    return cf.load_fixture("whitehead")


@pytest.fixture(scope="session")
def link622():
    return cf.load_fixture("622")


@pytest.fixture(scope="session")
def berge():
    return cf.load_fixture("berge")


@pytest.fixture(scope="session")
def solved(whitehead, link622, berge):
    """Complete solves of all fixtures at the standard precision."""
    out = {}
    with mp.workprec(PRECISION + 30):
        for tri in (whitehead, link622, berge):
            out[tri.name] = solve_complete(tri, PRECISION, seed=0)
    return out


def rational_point_sampler(n, seed=0, height=100, guard=1e-6):
    """Generator of non-degenerate ShapeAssignments with rational
    coordinates of height <= `height`."""
    rng = random.Random(seed)

    def one():
        while True:
            values = [
                complex(
                    Fraction(rng.randint(-height, height), rng.randint(1, height)),
                    Fraction(rng.randint(-height, height), rng.randint(1, height)),
                )
                for _ in range(n)
            ]
            shapes = cf.ShapeAssignment.from_values(values, PRECISION)
            if not any(abs(z) < guard or abs(1 - z) < guard for z in shapes.z):
                return shapes

    while True:
        yield one()


def take(gen, k):
    return [next(gen) for _ in range(k)]


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__abs__")


def count_mpmath_arithmetic(monkeypatch) -> dict:
    """From now on, count every call of an mpc or mpf arithmetic operator:
    the returned dict maps (class name, operator) to its calls so far."""
    counts = {}
    for cls in (mp.mpc, mp.mpf):
        for name in _ARITHMETIC:
            def counted(*args, _op=getattr(cls, name), _key=(cls.__name__, name)):
                counts[_key] = counts.get(_key, 0) + 1
                return _op(*args)
            monkeypatch.setattr(cls, name, counted)
    return counts
