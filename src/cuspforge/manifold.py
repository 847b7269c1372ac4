"""Decorated ideal triangulations: data model, JSON ingestion, validation.

A triangulation is described combinatorially, by the corner words that the
downstream holonomy functions need, rather than by face pairings:

* each edge class lists the tetrahedron corners identified to it, each
  corner tagged E0/E1/E2 for which of the three corner parameters
  (z, zeta1(z), zeta2(z)) it carries under the right-hand rule;
* each cusp carries a meridian/longitude pair of closed simplicial curves
  on its cross-section torus, stored as ordered right-hand fan words per
  vertex, plus the leading w0 word measured from the shared reference edge.

The file format is a purpose-built JSON schema (see ``parse_triangulation``)
because plain exponent-matrix formats cannot encode the *ordered* partial
products that the translation functions need.

Everything is immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
import pathlib
import unicodedata
from dataclasses import dataclass

from .holonomy import SignedMonomial

CORNER_KINDS = ("E0", "E1", "E2")


class TriangulationError(ValueError):
    """Schema violation or invariant failure in triangulation data."""


@dataclass(frozen=True)
class CornerRef:
    """One corner slot of a tetrahedron: which tet, and which of the three
    corner parameters (E0 -> z, E1 -> zeta1, E2 -> zeta2) it contributes."""

    tet: int
    kind: str

    def __post_init__(self):
        if self.kind not in CORNER_KINDS:
            raise TriangulationError(f"corner kind must be one of {CORNER_KINDS}, got {self.kind!r}")
        if self.tet < 0:
            raise TriangulationError(f"corner tetrahedron index must be >= 0, got {self.tet}")


@dataclass(frozen=True)
class EdgeClass:
    label: str
    corners: tuple[CornerRef, ...]

    def __post_init__(self):
        if not self.corners:
            raise TriangulationError(f"edge {self.label!r}: corner list is empty")


@dataclass(frozen=True)
class CurveVertex:
    """A vertex visited by a cusp curve, with the full right-hand fan word."""

    word: tuple[CornerRef, ...]


@dataclass(frozen=True)
class CuspCurve:
    """Closed oriented simplicial curve on a cusp cross-section.

    ``vertices[j].word`` is the full fan of corners on the right-hand side
    at the j-th vertex (between the incoming and outgoing curve edges); it
    feeds the dilation function.  ``w0_word`` is the trailing part of the
    basepoint fan lying between the reference edge f and the first curve
    edge (empty when f *is* the first edge); it seeds the translation
    function.  Hence ``vertices[0].word`` must end with ``w0_word``.

    ``anchor`` names the (basepoint, reference edge) pair the curve is
    measured from; curves may be concatenated only when anchors agree.  It
    is assigned by the parser, not stored in files.
    """

    name: str
    vertices: tuple[CurveVertex, ...]
    w0_word: tuple[CornerRef, ...] = ()
    anchor: str | None = None

    def __post_init__(self):
        if not self.vertices:
            raise TriangulationError(f"curve {self.name!r}: vertex list is empty")
        k = len(self.w0_word)
        if k and tuple(self.vertices[0].word[len(self.vertices[0].word) - k:]) != tuple(self.w0_word):
            raise TriangulationError(
                f"curve {self.name!r}: w0_word must be the trailing segment of "
                "the basepoint fan word"
            )

    def pre_word(self) -> tuple[CornerRef, ...]:
        """Basepoint fan ahead of the reference edge (full fan minus w0_word)."""
        word = self.vertices[0].word
        k = len(self.w0_word)
        return tuple(word[: len(word) - k]) if k else tuple(word)


@dataclass(frozen=True)
class CuspData:
    name: str
    meridian: CuspCurve
    longitude: CuspCurve

    def __post_init__(self):
        if self.meridian.anchor != self.longitude.anchor:
            raise TriangulationError(
                f"cusp {self.name!r}: meridian and longitude declare different "
                "reference edges"
            )


@dataclass(frozen=True)
class IdealTriangulation:
    name: str
    n_tet: int
    edges: tuple[EdgeClass, ...]
    cusps: tuple[CuspData, ...]

    def edge_equation(self, index: int) -> SignedMonomial:
        """The edge equation monomial: 'this = 1' is the gluing condition."""
        return SignedMonomial.from_word(self.n_tet, self.edges[index].corners)

    def edge_equations(self) -> list[SignedMonomial]:
        return [self.edge_equation(i) for i in range(len(self.edges))]


def validate(tri: IdealTriangulation) -> None:
    """Check the structural invariants; raise TriangulationError on failure."""
    n = tri.n_tet
    if len(tri.edges) != n:
        raise TriangulationError(
            f"{tri.name!r}: {len(tri.edges)} edge classes for {n} tetrahedra; "
            "an ideal triangulation of a cusped manifold needs exactly one "
            "edge class per tetrahedron"
        )
    counts = {(t, k): 0 for t in range(n) for k in CORNER_KINDS}
    for edge in tri.edges:
        for corner in edge.corners:
            if corner.tet >= n:
                raise TriangulationError(
                    f"{tri.name!r} edge {edge.label!r}: tetrahedron index "
                    f"{corner.tet} out of range"
                )
            counts[(corner.tet, corner.kind)] += 1
    for (t, k), c in sorted(counts.items()):
        if c != 2:
            raise TriangulationError(
                f"{tri.name!r}: tetrahedron {t} contributes {c} corners of kind "
                f"{k} across all edges; exactly 2 are required"
            )
    product = SignedMonomial.one(n)
    for i in range(len(tri.edges)):
        product = product * tri.edge_equation(i)
    if not product.is_one():
        raise TriangulationError(
            f"{tri.name!r}: product of all edge equations is {product}, not the "
            "constant +1; corner data is inconsistent"
        )
    for cusp in tri.cusps:
        for curve in (cusp.meridian, cusp.longitude):
            for vertex in curve.vertices:
                for corner in vertex.word:
                    if corner.tet >= n:
                        raise TriangulationError(
                            f"{tri.name!r} curve {curve.name!r}: tetrahedron "
                            f"index {corner.tet} out of range"
                        )


def is_int(value) -> bool:
    """An integer of the schema: JSON true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _has_control_character(name: str) -> bool:
    return any(unicodedata.category(ch) == "Cc" for ch in name)


def _parse_corner(obj, where: str) -> CornerRef:
    if not isinstance(obj, dict) or set(obj) != {"tet", "kind"}:
        raise TriangulationError(f"{where}: corner must be an object with keys tet, kind")
    if not is_int(obj["tet"]):
        raise TriangulationError(f"{where}: corner tet must be an integer")
    return CornerRef(obj["tet"], obj["kind"])


def _parse_word(obj, where: str) -> tuple[CornerRef, ...]:
    if not isinstance(obj, list):
        raise TriangulationError(f"{where}: corner word must be a list")
    return tuple(_parse_corner(c, where) for c in obj)


def _parse_curve(obj, name: str, anchor: str, where: str) -> CuspCurve:
    if not isinstance(obj, dict) or set(obj) != {"w0_word", "vertices"}:
        raise TriangulationError(f"{where}: curve must have exactly the keys w0_word, vertices")
    if not isinstance(obj["vertices"], list) or not obj["vertices"]:
        raise TriangulationError(f"{where}: vertices must be a nonempty list")
    vertices = []
    for i, v in enumerate(obj["vertices"]):
        if not isinstance(v, dict) or set(v) != {"word"}:
            raise TriangulationError(f"{where}: vertex {i} must be an object with key word")
        vertices.append(CurveVertex(_parse_word(v["word"], f"{where} vertex {i}")))
    return CuspCurve(
        name=name,
        vertices=tuple(vertices),
        w0_word=_parse_word(obj["w0_word"], f"{where} w0_word"),
        anchor=anchor,
    )


def parse_triangulation(document: str) -> IdealTriangulation:
    """Parse and validate a triangulation from its JSON text.

    Schema (all keys required unless marked optional, unknown keys rejected)::

        { "name": str, "n_tet": int,
          "edges": [ { "label": str,
                       "corners": [ {"tet": int, "kind": "E0"|"E1"|"E2"}, ... ] } ],
          "cusps": [ { "name": str, "meridian": CURVE, "longitude": CURVE } ] }
        CURVE = { "w0_word": [CORNER, ...],
                  "vertices": [ { "word": [CORNER, ...] }, ... ] }

    Field order is irrelevant; indexing of tetrahedra, edges, and cusps is
    the stable order of appearance in the document.  A triangulation is
    the unfilled link: Dehn fillings are not part of the file but the
    argument of `cuspforge fill` and `solver.solve_filled`.
    """
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError (a ValueError), json raises ValueError on
        # an integer of too many digits and RecursionError on nesting too deep
        raise TriangulationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TriangulationError("top-level document must be a JSON object")
    required = {"name", "n_tet", "edges", "cusps"}
    if set(doc) != required:
        extra = set(doc) - required
        missing = required - set(doc)
        detail = []
        if missing:
            detail.append(f"missing keys {sorted(missing)}")
        if extra:
            detail.append(f"unknown keys {sorted(extra)}")
        raise TriangulationError("document schema: " + ", ".join(detail))
    name = doc["name"]
    n_tet = doc["n_tet"]
    if not isinstance(name, str) or not is_int(n_tet) or n_tet <= 0:
        raise TriangulationError("name must be a string and n_tet a positive integer")
    if _has_control_character(name):
        raise TriangulationError("name must not contain control characters")
    for key in ("edges", "cusps"):
        if not isinstance(doc[key], list):
            raise TriangulationError(f"{key} must be a list")

    edges = []
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, dict) or set(e) != {"label", "corners"}:
            raise TriangulationError(f"edge {i}: must have exactly the keys label, corners")
        if not isinstance(e["label"], str):
            raise TriangulationError(f"edge {i}: label must be a string")
        edges.append(EdgeClass(e["label"], _parse_word(e["corners"], f"edge {i} ({e['label']!r})")))

    cusps = []
    for i, c in enumerate(doc["cusps"]):
        if not isinstance(c, dict):
            raise TriangulationError(f"cusp {i}: must be an object")
        if "filling" in c:
            raise TriangulationError(
                f"cusp {i}: key 'filling' is not part of a triangulation; give Dehn "
                "fillings to `cuspforge fill` or `solver.solve_filled` instead"
            )
        if set(c) != {"name", "meridian", "longitude"}:
            raise TriangulationError(f"cusp {i}: keys must be exactly name, meridian, longitude")
        if not isinstance(c["name"], str):
            raise TriangulationError(f"cusp {i}: name must be a string")
        if _has_control_character(c["name"]):
            raise TriangulationError(f"cusp {i}: name must not contain control characters")
        anchor = f"{c['name']}/f"
        meridian = _parse_curve(c["meridian"], f"{c['name']}.meridian", anchor, f"cusp {c['name']!r} meridian")
        longitude = _parse_curve(c["longitude"], f"{c['name']}.longitude", anchor, f"cusp {c['name']!r} longitude")
        cusps.append(CuspData(c["name"], meridian, longitude))

    tri = IdealTriangulation(name=name, n_tet=n_tet, edges=tuple(edges), cusps=tuple(cusps))
    validate(tri)
    return tri


def read_triangulation(path) -> IdealTriangulation:
    """Read a triangulation file and parse it.  A file that is not UTF-8
    text is a TriangulationError, like any other malformed input; a file
    that cannot be read raises OSError."""
    try:
        document = pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TriangulationError(f"not UTF-8 text: {exc}") from exc
    return parse_triangulation(document)


def _corner_obj(corner: CornerRef) -> dict:
    return {"tet": corner.tet, "kind": corner.kind}


def _curve_obj(curve: CuspCurve) -> dict:
    return {
        "w0_word": [_corner_obj(c) for c in curve.w0_word],
        "vertices": [{"word": [_corner_obj(c) for c in v.word]} for v in curve.vertices],
    }


def serialize(tri: IdealTriangulation) -> str:
    """Inverse of parse_triangulation (up to JSON whitespace)."""
    doc = {
        "name": tri.name,
        "n_tet": tri.n_tet,
        "edges": [
            {"label": e.label, "corners": [_corner_obj(c) for c in e.corners]}
            for e in tri.edges
        ],
        "cusps": [
            {"name": c.name, "meridian": _curve_obj(c.meridian), "longitude": _curve_obj(c.longitude)}
            for c in tri.cusps
        ],
    }
    return json.dumps(doc, indent=1)


def concat_curves(a: CuspCurve, b: CuspCurve) -> CuspCurve:
    """The closed curve traversing a then b through the common basepoint.

    The fan at each passage through the basepoint is re-assembled from the
    stored pieces: the incoming curve's fan ahead of the reference edge,
    then the outgoing curve's w0 word.  This keeps both holonomy identities
    exact: the dilation of the concatenation is the product of dilations,
    and the translation satisfies tau(ab) = tau(a) + mu(a) tau(b).
    """
    if a.anchor != b.anchor:
        raise TriangulationError(
            f"cannot concatenate {a.name!r} and {b.name!r}: different basepoint "
            f"or reference edge ({a.anchor!r} vs {b.anchor!r})"
        )
    base_word = b.pre_word() + tuple(a.w0_word)
    junction_word = a.pre_word() + tuple(b.w0_word)
    vertices = (
        (CurveVertex(base_word),)
        + tuple(a.vertices[1:])
        + (CurveVertex(junction_word),)
        + tuple(b.vertices[1:])
    )
    return CuspCurve(
        name=f"{a.name}*{b.name}",
        vertices=vertices,
        w0_word=tuple(a.w0_word),
        anchor=a.anchor,
    )


def invert_curve(curve: CuspCurve, n_tet: int) -> CuspCurve:
    """The orientation-reversed curve, as corner-word data.

    Reversal inverts the holonomy: the dilation becomes its reciprocal and
    the translation becomes -tau/mu.  On the word level this is exact and
    local: with fan products (pre, w_0, w_1, ..., w_{m-1}) the reversed
    curve has fan products (w_0^-1, pre^-1, w_{m-1}^-1, ..., w_1^-1).  The
    resulting words realize those monomials; they are algebraically, not
    pictorially, derived.
    """
    m = len(curve.vertices)
    pre = SignedMonomial.from_word(n_tet, curve.pre_word())
    w0 = SignedMonomial.from_word(n_tet, curve.w0_word)
    ws = [SignedMonomial.from_word(n_tet, v.word) for v in curve.vertices]

    new_w0_word = _exponents_to_word(pre.inverse())
    new_pre_word = _exponents_to_word(w0.inverse())
    vertices = [CurveVertex(new_pre_word + new_w0_word)]
    for r in range(1, m):
        vertices.append(CurveVertex(_exponents_to_word(ws[m - r].inverse())))
    return CuspCurve(
        name=f"{curve.name}^-1",
        vertices=tuple(vertices),
        w0_word=new_w0_word,
        anchor=curve.anchor,
    )


def _exponents_to_word(mono: SignedMonomial) -> tuple[CornerRef, ...]:
    """Rewrite a monomial as a corner word with the same sign and exponents.

    Per tetrahedron, counts (e0, e1, e2) with e0 - e2 = a, e2 - e1 = b give
    the exponents; a sign mismatch from the E2 parity is repaired with one
    z*zeta1*zeta2 = -1 triple, which contributes nothing to the exponents.
    """
    word: list[CornerRef] = []
    n_e2 = 0
    for t, (az, bz) in enumerate(zip(mono.a, mono.b)):
        e2 = max(0, -az, bz)
        e0 = az + e2
        e1 = e2 - bz
        word += [CornerRef(t, "E0")] * e0 + [CornerRef(t, "E1")] * e1 + [CornerRef(t, "E2")] * e2
        n_e2 += e2
    if (1 if n_e2 % 2 == 0 else -1) != mono.sign:
        word += [CornerRef(0, "E0"), CornerRef(0, "E1"), CornerRef(0, "E2")]
    return tuple(word)

