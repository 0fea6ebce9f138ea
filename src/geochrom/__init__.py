"""Exact computation engine for geometric graph crossings and colorings.

Public surface: exact geometry predicates, geometric graphs with derived
crossing sets, catalogs of clique crossing structures, homomorphism
verification and search (chi, X, X'), the four constructive lifting methods,
and the obstruction-based lower bound.
"""

from .catalog import (
    CatalogEntry,
    CatalogStore,
    CliqueCatalog,
    convex_clique,
    enumerate_clique_structures,
)
from .errors import (
    CatalogMissing,
    ChiOutOfRange,
    CollapsedCrossingPair,
    CrossingsNotIndependent,
    DistanceTooSmall,
    GeochromError,
    GraphFormatError,
    LiftInternalError,
    NotProperColoring,
    SharedEndpoint,
    SizeUnsupported,
    UnknownFigure,
)
from .generators import (
    FIGURE_TAGS,
    figure6_coloring,
    figure_graphs,
    random_geometric_graph,
    separation_family,
    star_crossing,
)
from .geometry import (
    COORD_BOUND,
    Point,
    convex_crossing_rule,
    is_general_position,
    orientation,
    regular_polygon_points,
    segments_cross,
)
from .graphs import (
    Crossing,
    CrossingStructure,
    GeometricGraph,
    crossing_distance,
    crossing_structure,
    crossings_of,
    graph_from_json_dict,
    graph_to_json_dict,
    min_pairwise_crossing_distance,
)
from .homomorphism import (
    XResult,
    chromatic_number,
    find_geometric_hom,
    geochromatic_number,
    pseudo_geochromatic_number,
)
from .lifts import (
    LiftReport,
    find_noncollapsing_hom,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
)
from .obstructions import (
    DistinctnessGraph,
    geochromatic_lower_bound,
    non_identifiable_pairs,
)
from .verify import (
    Coloring,
    VertexMap,
    is_geometric_hom,
    is_graph_hom,
    is_proper,
    is_pseudo_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogMissing",
    "CatalogStore",
    "ChiOutOfRange",
    "CliqueCatalog",
    "Coloring",
    "CollapsedCrossingPair",
    "COORD_BOUND",
    "Crossing",
    "CrossingStructure",
    "CrossingsNotIndependent",
    "DistanceTooSmall",
    "DistinctnessGraph",
    "FIGURE_TAGS",
    "GeochromError",
    "GeometricGraph",
    "GraphFormatError",
    "LiftInternalError",
    "LiftReport",
    "NotProperColoring",
    "Point",
    "SharedEndpoint",
    "SizeUnsupported",
    "UnknownFigure",
    "VertexMap",
    "XResult",
    "chromatic_number",
    "convex_clique",
    "convex_crossing_rule",
    "crossing_distance",
    "crossing_structure",
    "crossings_of",
    "enumerate_clique_structures",
    "figure6_coloring",
    "figure_graphs",
    "find_geometric_hom",
    "find_noncollapsing_hom",
    "geochromatic_lower_bound",
    "geochromatic_number",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "is_general_position",
    "is_geometric_hom",
    "is_graph_hom",
    "is_proper",
    "is_pseudo_coloring",
    "lift_dist2",
    "lift_independent",
    "lift_independent_noncollapsing",
    "lift_small_chi",
    "min_pairwise_crossing_distance",
    "non_identifiable_pairs",
    "orientation",
    "pseudo_geochromatic_number",
    "random_geometric_graph",
    "regular_polygon_points",
    "segments_cross",
    "separation_family",
    "star_crossing",
]
