"""Exact refined counts of planar tropical curves.

Two independent engines (floor diagrams and lattice paths) compute the same
Laurent-polynomial-valued curve counts; a third module scores individual
curves, and :mod:`refinedcount.analysis` cross-checks everything.
"""

from .laurent import RefinedPoly, quantum_integer
from .geometry import (
    BalancedDegree,
    LatticePolygon,
    HTransverseShape,
    UnsupportedDegreeError,
    dual_polygon,
    degree_from_polygon,
    lattice_counts,
    delta_invariant,
    genus_max,
    pi_count,
    h_transverse,
    parse_degree,
    p2_degree,
    p1xp1_degree,
)
from .curves import (
    CurveCombinatorics,
    CurveEdge,
    CurveStats,
    CurveValidationError,
    VertexStar,
    curve_multiplicities,
    delta_class,
    property_report,
)
from .floors import (
    FloorDiagram,
    compute_G_floor,
    enumerate_diagrams,
    markings_count,
    refined_multiplicity,
)
from .paths import (
    LambdaOrder,
    all_orders,
    compute_G_path,
)
from .analysis import (
    InvariantReport,
    a_delta_minus_1_formula,
    analyze,
    canonical_spec,
    cross_validate,
    delta_minus_1_lower_bound,
    structural_checks,
)

__all__ = [
    "RefinedPoly",
    "quantum_integer",
    "BalancedDegree",
    "LatticePolygon",
    "HTransverseShape",
    "dual_polygon",
    "degree_from_polygon",
    "lattice_counts",
    "delta_invariant",
    "genus_max",
    "pi_count",
    "h_transverse",
    "parse_degree",
    "p2_degree",
    "p1xp1_degree",
    "CurveCombinatorics",
    "CurveEdge",
    "CurveStats",
    "CurveValidationError",
    "VertexStar",
    "curve_multiplicities",
    "delta_class",
    "property_report",
    "FloorDiagram",
    "UnsupportedDegreeError",
    "compute_G_floor",
    "enumerate_diagrams",
    "markings_count",
    "refined_multiplicity",
    "LambdaOrder",
    "all_orders",
    "compute_G_path",
    "InvariantReport",
    "a_delta_minus_1_formula",
    "analyze",
    "canonical_spec",
    "cross_validate",
    "delta_minus_1_lower_bound",
    "structural_checks",
]

__version__ = "0.1.0"
