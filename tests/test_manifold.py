"""Parsing, validation, serialization, and curve algebra."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

import cuspforge as cf
from cuspforge.manifold import (
    CornerRef,
    CurveVertex,
    CuspCurve,
    TriangulationError,
    concat_curves,
    parse_triangulation,
    serialize,
)

from conftest import rational_point_sampler, take


def test_bundled_fixture_shapes(whitehead, link622, berge):
    assert (whitehead.n_tet, len(whitehead.edges), len(whitehead.cusps)) == (4, 4, 2)
    assert (link622.n_tet, len(link622.edges), len(link622.cusps)) == (6, 6, 2)
    assert (berge.n_tet, len(berge.edges), len(berge.cusps)) == (4, 4, 2)


def test_edge_product_is_one(whitehead, link622, berge):
    for tri in (whitehead, link622, berge):
        product = cf.SignedMonomial.one(tri.n_tet)
        for i in range(len(tri.edges)):
            product = product * tri.edge_equation(i)
        assert product.is_one()


def test_round_trip(whitehead, link622, berge):
    for tri in (whitehead, link622, berge):
        again = parse_triangulation(serialize(tri))
        assert serialize(again) == serialize(tri)
        assert again == tri


def test_corner_count_violation():
    doc = {
        "name": "bad",
        "n_tet": 1,
        "edges": [
            {"label": "e", "corners": [
                {"tet": 0, "kind": "E0"}, {"tet": 0, "kind": "E0"},
                {"tet": 0, "kind": "E0"},
                {"tet": 0, "kind": "E1"}, {"tet": 0, "kind": "E2"},
                {"tet": 0, "kind": "E2"},
            ]},
        ],
        "cusps": [],
    }
    with pytest.raises(TriangulationError, match="corners of kind"):
        parse_triangulation(json.dumps(doc))


def test_edge_count_violation(whitehead):
    doc = json.loads(serialize(whitehead))
    doc["edges"] = doc["edges"][:3]
    with pytest.raises(TriangulationError, match="edge classes"):
        parse_triangulation(json.dumps(doc))


def test_unknown_keys_rejected(whitehead):
    doc = json.loads(serialize(whitehead))
    doc["extra"] = 1
    with pytest.raises(TriangulationError, match="unknown keys"):
        parse_triangulation(json.dumps(doc))
    doc = json.loads(serialize(whitehead))
    doc["cusps"][0]["meridian"]["surprise"] = []
    with pytest.raises(TriangulationError):
        parse_triangulation(json.dumps(doc))


def test_bad_corner_kind(whitehead):
    doc = json.loads(serialize(whitehead))
    doc["edges"][0]["corners"][0]["kind"] = "E3"
    with pytest.raises(TriangulationError):
        parse_triangulation(json.dumps(doc))


def test_filling_key_is_refused(whitehead):
    # a triangulation is the unfilled link: the filling is the argument of
    # a sweep, and the error names the key and where fillings go instead
    doc = json.loads(serialize(whitehead))
    doc["cusps"][1]["filling"] = [1, 2]
    with pytest.raises(TriangulationError,
                       match=r"key 'filling' .*`cuspforge fill` or `solver\.solve_filled`"):
        parse_triangulation(json.dumps(doc))


def test_w0_word_must_be_suffix():
    with pytest.raises(TriangulationError, match="trailing segment"):
        CuspCurve(
            name="bad",
            vertices=(CurveVertex((CornerRef(0, "E0"), CornerRef(0, "E1"))),),
            w0_word=(CornerRef(0, "E2"),),
        )


def test_concat_requires_common_anchor(whitehead):
    a = whitehead.cusps[0].meridian
    b = whitehead.cusps[1].meridian
    with pytest.raises(TriangulationError, match="reference edge"):
        concat_curves(a, b)


def test_concat_doubles_vertices(whitehead):
    m = whitehead.cusps[0].meridian
    mm = concat_curves(m, m)
    assert len(mm.vertices) == 2 * len(m.vertices)


def test_concat_mu_multiplicative_at_points(whitehead):
    # concat(m, l) has mu = mu(m) mu(l) at sampled points (and canonically)
    tri = whitehead
    m, l = tri.cusps[0].meridian, tri.cusps[0].longitude
    ml = concat_curves(m, l)
    assert cf.mu(tri, ml) == cf.mu(tri, m) * cf.mu(tri, l)
    for shapes in take(rational_point_sampler(tri.n_tet, seed=3), 20):
        lhs = cf.mu(tri, ml).evaluate(shapes)
        rhs = cf.mu(tri, m).evaluate(shapes) * cf.mu(tri, l).evaluate(shapes)
        assert abs(lhs - rhs) < mp.mpf(2) ** -200


def test_invert_curve_laws(link622):
    tri = link622
    for cusp in tri.cusps:
        for curve in (cusp.meridian, cusp.longitude):
            inv = cf.invert_curve(curve, tri.n_tet)
            assert (cf.mu(tri, curve) * cf.mu(tri, inv)).is_one()
            for shapes in take(rational_point_sampler(tri.n_tet, seed=8), 5):
                lhs = cf.tau(tri, inv).evaluate(shapes)
                rhs = -cf.tau(tri, curve).evaluate(shapes) / cf.mu(
                    tri, curve).as_sum().evaluate(shapes)
                assert abs(lhs - rhs) < mp.mpf(2) ** -180


@pytest.mark.parametrize("where", ["edges", "cusps"])
@pytest.mark.parametrize("value", [5, None, ["c"], {"a": 1}])
def test_names_must_be_strings(whitehead, where, value):
    doc = json.loads(serialize(whitehead))
    doc[where][0]["label" if where == "edges" else "name"] = value
    with pytest.raises(TriangulationError, match="must be a string"):
        parse_triangulation(json.dumps(doc))


# ---------------------------------------------------------------------------
# malformed input: one mutated node of a fixture's JSON

def _draw_path(data, doc) -> tuple:
    """A random walk from the document root: the key or index path of one
    node, stopping at each level with probability 1/2 (always at a leaf or
    an empty container)."""
    node, path = doc, ()
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        path += (key,)
        node = node[key]
        if not isinstance(node, (dict, list)) or not node or data.draw(st.booleans()):
            return path


_DELETE = object()
_REPLACEMENTS = st.one_of(
    st.just(_DELETE), st.none(), st.integers(-3, 10**6), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.sampled_from(["tet", "kind", "word", "label"]), st.integers(0, 3),
                    max_size=2),
)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fixture=st.sampled_from(["whitehead", "622", "berge"]), data=st.data(),
       replacement=_REPLACEMENTS)
def test_mutated_fixture_parses_or_raises_triangulation_error(fixture, data, replacement):
    doc = json.loads(serialize(cf.load_fixture(fixture)))
    path = _draw_path(data, doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    try:
        parse_triangulation(json.dumps(doc))
    except TriangulationError:
        pass
