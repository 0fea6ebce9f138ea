import math

import pytest

from geochrom import (
    UnknownFigure,
    chromatic_number,
    convex_clique,
    crossings_of,
    figure6_coloring,
    figure_graphs,
    is_general_position,
    is_geometric_hom,
    is_pseudo_coloring,
    min_pairwise_crossing_distance,
    random_geometric_graph,
    separation_family,
    star_crossing,
)
from oracles import crossing_pairs_raw, reference_random_geometric_graph


@pytest.mark.parametrize("k", range(1, 11))
def test_star_crossing_counts_and_bundled_map(k):
    g, beta = star_crossing(k)
    cs = crossings_of(g)
    assert len(cs) == k
    assert is_geometric_hom(g, convex_clique(4), beta)
    if k > 1:
        # all crossings share the single crossing segment {k+1, k+2}
        assert all((k + 1, k + 2) in c.edges() for c in cs)


def test_families_refuse_size_zero():
    with pytest.raises(ValueError, match="need k >= 1"):
        star_crossing(0)
    with pytest.raises(ValueError, match="need n >= 1"):
        separation_family(0)


def test_star_crossing_k1_is_convex_k4():
    g, beta = star_crossing(1)
    assert g == convex_clique(4)
    assert beta.images == (0, 1, 2, 3)


def test_separation_family_shapes():
    g1 = separation_family(1)  # m=2: triangle on labels 1,3,5; labels 2,4,6 isolated
    assert g1.n == 6
    assert g1.edges == frozenset({(0, 2), (0, 4), (2, 4)})
    assert len(crossings_of(g1)) == 0
    # no crossings at all, so the minimum pairwise distance is infinite
    assert min_pairwise_crossing_distance(g1) == math.inf

    g2 = separation_family(2)  # m=3: triangle 1,4,7 plus the 2-path on 2,5,8
    assert g2.n == 9
    assert g2.edges == frozenset({(0, 3), (0, 6), (3, 6), (1, 4), (1, 7)})
    expected = crossing_pairs_raw([(p.x, p.y) for p in g2.points], g2.edges)
    assert {(c.e1, c.e2) for c in crossings_of(g2)} == expected
    assert len(expected) == 4
    # crossings share vertices, hence distance 0
    assert min_pairwise_crossing_distance(g2) == 0


def test_separation_family_chromatic():
    assert chromatic_number(separation_family(2))[0] == 3


@pytest.mark.parametrize("tag", [
    "figure1_left", "figure1_right", "figure2_left", "figure2_right",
    "figure3_left", "figure3_right", "figure6",
])
def test_every_figure_is_general_position(tag):
    g = figure_graphs(tag)
    assert is_general_position(g.points)


def test_figure1_caption_claims():
    left = figure_graphs("figure1_left")
    right = figure_graphs("figure1_right")
    crossed_left = set()
    for c in crossings_of(left):
        crossed_left.update(c.edges())
    # some vertex of the left drawing has every incident edge crossed
    assert any(
        all(e in crossed_left for e in left.edges if v in e) for v in range(6)
    )
    assert len(crossings_of(right)) > len(crossings_of(left))


def test_figure6_bundled_coloring():
    coloring = figure6_coloring()
    assert coloring.n == 5
    assert is_pseudo_coloring(figure_graphs("figure6"), coloring)


def test_unknown_figure_tag():
    with pytest.raises(UnknownFigure):
        figure_graphs("figure9")


def test_random_graph_determinism_and_thresholds():
    a = random_geometric_graph(8, 0.3, min_crossing_distance=2, seed=7)
    b = random_geometric_graph(8, 0.3, min_crossing_distance=2, seed=7)
    assert a == b
    assert min_pairwise_crossing_distance(a) >= 2

    c = random_geometric_graph(8, 0.3, min_crossing_distance=2, seed=8)
    assert c != a


def test_random_graph_zero_probability_is_crossing_free():
    g = random_geometric_graph(9, 0.0, seed=3)
    assert not g.edges
    assert not crossings_of(g)


def test_random_graph_rejects_bad_parameters():
    with pytest.raises(ValueError, match="vertex_count"):
        random_geometric_graph(0, 0.2)
    with pytest.raises(ValueError):
        random_geometric_graph(8, 0.2, min_crossing_distance=3)


@pytest.mark.parametrize("p", [-0.1, 1.5, 2.0, float("nan"), float("inf")])
def test_random_graph_rejects_edge_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="edge_probability"):
        random_geometric_graph(8, p)


def test_random_graph_accepts_edge_probability_bounds():
    assert not random_geometric_graph(6, 0.0, seed=1).edges
    assert len(random_geometric_graph(6, 1.0, seed=1).edges) == 15


@pytest.mark.parametrize("args", [(13, 0.3, 1, 9007), (12, 0.9, 1, 0), (12, 0.9, 2, 0), (14, 0.5, 2, 3),
                                  (30, 0.5, 2, 3)])
def test_random_graph_meets_rare_distance_constraints(args):
    # random draws of these sizes almost never meet the constraint as drawn
    v, p, k, seed = args
    g = random_geometric_graph(v, p, min_crossing_distance=k, seed=seed)
    assert g.n == v
    assert min_pairwise_crossing_distance(g) >= k
    assert g == random_geometric_graph(v, p, min_crossing_distance=k, seed=seed)
    # only edges were deleted: the points and a subset of the edges of the free draw
    free = random_geometric_graph(v, p, seed=seed)
    assert g.points == free.points and g.edges <= free.edges


def test_random_graph_matches_the_rescanning_reference():
    # Deleting through a per-edge index of the crossings keeps the draw of the former full rescan, and checking
    # each candidate point by its slopes to the kept points, O(n) a candidate, keeps the points of the cubic loop.
    thinned = 0
    cases = [(v, p, k) for v in (8, 16, 26, 40) for p in (0.2, 0.35, 0.5) for k in (0, 1, 2)]
    cases += [(v, p, k) for v, p in ((60, 0.05), (120, 0.01), (200, 0.004)) for k in (0, 1, 2)]
    for i, (v, p, k) in enumerate(cases):
        g = random_geometric_graph(v, p, min_crossing_distance=k, seed=300 + i)
        points, edges = reference_random_geometric_graph(v, p, k, 300 + i)
        assert [(q.x, q.y) for q in g.points] == points, (v, p, k)
        assert sorted(g.edges) == edges, (v, p, k)
        thinned += len(edges) < len(random_geometric_graph(v, p, seed=300 + i).edges)
    assert thinned > 15
