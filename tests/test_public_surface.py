import geochrom

# Adding, removing or renaming a public name must change this list on purpose.
PUBLIC = [
    "COORD_BOUND", "CatalogEntry", "CatalogMissing", "CatalogStore", "ChiOutOfRange",
    "CliqueCatalog", "CollapsedCrossingPair", "Coloring", "Crossing", "CrossingStructure",
    "CrossingsNotIndependent", "DistanceTooSmall", "DistinctnessGraph", "FIGURE_TAGS",
    "GeochromError", "GeometricGraph", "GraphFormatError", "LiftInternalError", "LiftReport",
    "NotProperColoring", "Point", "SharedEndpoint", "SizeUnsupported",
    "UnknownFigure", "VertexMap", "XResult", "chromatic_number", "convex_clique",
    "convex_crossing_rule", "crossing_distance", "crossing_structure", "crossings_of",
    "enumerate_clique_structures", "figure6_coloring", "figure_graphs",
    "find_geometric_hom", "find_noncollapsing_hom", "geochromatic_lower_bound",
    "geochromatic_number", "graph_from_json_dict", "graph_to_json_dict", "is_general_position",
    "is_geometric_hom", "is_graph_hom", "is_proper", "is_pseudo_coloring", "lift_dist2",
    "lift_independent", "lift_independent_noncollapsing", "lift_small_chi",
    "min_pairwise_crossing_distance", "non_identifiable_pairs", "orientation",
    "pseudo_geochromatic_number", "random_geometric_graph", "regular_polygon_points",
    "segments_cross", "separation_family", "star_crossing",
]


def test_public_surface_is_pinned_and_resolves():
    assert len(PUBLIC) == 59
    assert sorted(geochrom.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(geochrom, name) is not None
