"""cuspforge: hyperbolic structures and cusp invariants on decorated
ideal triangulations.

The package computes complete and Dehn-filled hyperbolic structures from
gluing equations, builds the exact rational dilation/translation functions
of peripheral curves on the shape variety, recovers cusp parameters and
their number fields by integer-relation detection, and tests the two
obstructions (rigid cusp field, geometric non-isolation) that rule out
hidden symmetries for surgered knot complements.
"""

from .holonomy import (
    DegenerateShapeError,
    MonomialSum,
    ShapeAssignment,
    SignedMonomial,
    cusp_parameter,
    evaluate_cusp_parameter,
    mu,
    tau,
)
from .manifold import (
    CornerRef,
    CurveVertex,
    CuspCurve,
    CuspData,
    EdgeClass,
    IdealTriangulation,
    TriangulationError,
    concat_curves,
    invert_curve,
    parse_triangulation,
    read_triangulation,
    serialize,
    validate,
)

__version__ = "0.1.0"


def load_fixture(name: str) -> IdealTriangulation:
    """Parse one of the bundled triangulations ('whitehead', '622', 'berge'),
    or any name resolvable through the CUSPFORGE_FIXTURES directory."""
    from .screen import resolve_input

    return read_triangulation(resolve_input(name))

__all__ = [
    "CornerRef",
    "CurveVertex",
    "CuspCurve",
    "CuspData",
    "DegenerateShapeError",
    "EdgeClass",
    "IdealTriangulation",
    "MonomialSum",
    "ShapeAssignment",
    "SignedMonomial",
    "TriangulationError",
    "concat_curves",
    "cusp_parameter",
    "evaluate_cusp_parameter",
    "invert_curve",
    "load_fixture",
    "mu",
    "parse_triangulation",
    "read_triangulation",
    "serialize",
    "tau",
    "validate",
]
