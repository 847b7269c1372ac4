"""The block-form kernels that cut their own results, against the oracle
of `blockform_oracle`: the exact result handed to one `cut`.

`mul`, `minus` and `dot` cut inline, `aligned` skips the shift of a form
that already has the least exponent, and `Point._product` and
`Point.gradient_forms` multiply inline; every triple they return must be
the oracle's, bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import blockform_oracle as oracle
import cuspforge as cf
from cuspforge import blockform
from cuspforge.holonomy import Point, _factor_keys, _gradient_keys
from cuspforge.solver import _gluing_rows, completeness_system

from conftest import rational_point_sampler, take


@st.composite
def parts(draw):
    """A signed int of 1 to 1200 bits, or 0."""
    bits = draw(st.integers(0, 1200))
    if not bits:
        return 0
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return -m if draw(st.booleans()) else m


forms = st.tuples(st.one_of(st.just(0), parts()), st.one_of(st.just(0), parts()),
                  st.integers(-2000, 2000))
widths = st.integers(1, 1200)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(forms, widths)
def test_cut_matches_the_oracle(x, width):
    assert blockform.cut(*x, width) == oracle.cut(*x, width)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(forms, forms, widths)
def test_mul_and_minus_match_the_oracle(x, y, width):
    assert blockform.mul(x, y, width) == oracle.mul(x, y, width)
    assert blockform.minus(x, y, width) == oracle.minus(x, y, width)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(forms, forms), max_size=6), widths)
def test_dot_and_aligned_match_the_oracle(pairs, width):
    x, y = [p[0] for p in pairs], [p[1] for p in pairs]
    assert blockform.dot(x, y, width) == oracle.dot(x, y, width)
    assert blockform.aligned(x) == oracle.aligned(x)


def _reference_product(point, keys):
    """`Point._product` as a loop of oracle products."""
    if not keys:
        return 1, 0, 0
    value = point._power_form(keys[0])
    for key in keys[1:]:
        value = oracle.mul(value, point._power_form(key), point._width)
    return value


def _reference_gradient(point, terms):
    """`Point.gradient_forms` as oracle products of each term and its
    log-gradient entries, summed and cut by the oracle."""
    width = point._width
    entries = [[] for _ in point]
    for (a, b), c in terms.items():
        t = point.term_form(c, a, b)
        for key in _gradient_keys(a, b):
            entries[key[0]].append(oracle.mul(t, point._log_derivative_form(*key), width))
    return [oracle.cut(*oracle.aligned(p), width) for p in entries]


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_point_products_and_gradients_match_the_oracle(solved, bits):
    # every fixture's cleared rows, complete and completeness systems, at
    # the complete structure and at two seeded rational points
    for name, start in solved.items():
        tri = cf.load_fixture(name)
        with mp.workprec(bits + 30):
            eqs = _gluing_rows(tri, [None] * len(tri.cusps))
            eqs += [e for c in range(len(tri.cusps)) for e in completeness_system(tri, c)]
            points = [start.shapes.z] + [s.z for s in take(rational_point_sampler(tri.n_tet, 7), 2)]
            for z in points:
                point = Point([mp.mpc(v) for v in z])
                for eq in eqs:
                    terms = eq.cleared.terms
                    for a, b in terms:
                        keys = _factor_keys(a, b)
                        assert point._product(keys) == _reference_product(point, keys), name
                    assert point.gradient_forms(terms) == _reference_gradient(point, terms), name
