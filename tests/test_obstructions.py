import gc
import itertools
import weakref

import pytest

from geochrom import (
    GeometricGraph,
    chromatic_number,
    convex_clique,
    figure_graphs,
    geochromatic_lower_bound,
    non_identifiable_pairs,
    pseudo_geochromatic_number,
    random_geometric_graph,
)
from oracles import crossing_pairs_raw, odd_cycle_pairs, odd_path_pairs, reference_distinctness
from test_search import DRAWINGS

SEEDED = [random_geometric_graph(6 + seed % 6, 0.3 + 0.05 * (seed % 5), seed=4000 + seed) for seed in range(40)]


def accordion() -> GeometricGraph:
    """Zigzag path p0..p9 whose 9 edges all cross the one segment {10, 11}."""
    pts = [(10 * i, (-1) ** i * (10 + 2 * i * i)) for i in range(10)] + [(-5, 1), (95, -2)]
    return GeometricGraph.build(pts, [(i, i + 1) for i in range(9)] + [(10, 11)])


def test_rule_a_covers_edges_on_plane_graph():
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5)], [(0, 1), (1, 2)])
    dg = non_identifiable_pairs(plane)
    assert dg.forced_pairs == frozenset({(0, 1), (1, 2)})
    assert all(dg.provenance[p] == frozenset({"A"}) for p in dg.forced_pairs)


def test_rule_b_makes_crossing_quadruple_a_clique():
    k4 = convex_clique(4)
    dg = non_identifiable_pairs(k4)
    assert dg.forced_pairs == frozenset(itertools.combinations(range(4), 2))
    assert frozenset({"B"}) <= dg.provenance[(0, 2)]


def test_rule_d_forces_white_vertices_of_figure2_left():
    g = figure_graphs("figure2_left")  # triangle crossed by a 2-path; whites are 3, 4
    dg = non_identifiable_pairs(g)
    assert (3, 4) in dg.forced_pairs
    assert "D" in dg.provenance[(3, 4)]
    # the white vertices are not adjacent and share no crossing
    assert not {"A", "B"} & dg.provenance[(3, 4)]


def test_rule_c_forces_white_endpoints_of_figure2_right():
    g = figure_graphs("figure2_right")  # 3-path 0-1-2-3 crossed by edge {4,5}
    dg = non_identifiable_pairs(g)
    assert (0, 3) in dg.forced_pairs
    assert "C" in dg.provenance[(0, 3)]
    assert not {"A", "B"} & dg.provenance[(0, 3)]


def test_figure6_all_pairs_forced_with_xy_via_rule_d():
    g = figure_graphs("figure6")
    dg = non_identifiable_pairs(g)
    all_pairs = set(itertools.combinations(range(6), 2))
    assert dg.forced_pairs == frozenset(all_pairs)
    for pair in all_pairs - {(3, 4)}:
        assert "B" in dg.provenance[pair]
    assert "D" in dg.provenance[(3, 4)]
    assert "B" not in dg.provenance[(3, 4)]


def crossings_of_raw(g):
    return crossing_pairs_raw([(p.x, p.y) for p in g.points], g.edges)


def test_rule_c_has_no_length_cap():
    g = accordion()
    assert crossings_of_raw(g) == {((i, i + 1), (10, 11)) for i in range(9)}
    dg = non_identifiable_pairs(g)
    # the only path joining p0 and p9 has length 9
    assert dg.provenance[(0, 9)] == frozenset({"C"})
    odd = {(i, j) for i, j in itertools.combinations(range(10), 2) if (j - i) % 2}
    # the segment itself is a 1-path crossed by each path edge
    assert {p for p in dg.forced_pairs if "C" in dg.provenance[p]} == odd | {(10, 11)}


@pytest.mark.parametrize("seed", range(40))
def test_rule_c_matches_unbounded_odd_path_oracle(seed):
    g = SEEDED[seed]
    dg = non_identifiable_pairs(g)
    tagged = {p for p in dg.forced_pairs if "C" in dg.provenance[p]}
    assert tagged == odd_path_pairs(g.n, g.edges, crossings_of_raw(g))


def test_rule_d_matches_odd_cycle_oracle():
    fired = 0
    for seed, g in enumerate(SEEDED):
        dg = non_identifiable_pairs(g)
        tagged = {p for p in dg.forced_pairs if "D" in dg.provenance[p]}
        assert tagged == odd_cycle_pairs(g.n, g.edges, crossings_of_raw(g)), seed
        fired += bool(tagged)
    assert fired > 10


def test_rule_sets_match_the_tag_per_pair_reference():
    for g in DRAWINGS + SEEDED:
        expected = reference_distinctness(g.n, g.edges, crossings_of_raw(g))
        dg = non_identifiable_pairs(g)
        assert dict(dg.rules) == {rule: frozenset(p for p, ts in expected.items() if rule in ts) for rule in "ABCD"}
        assert dg.forced_pairs == frozenset(expected)
        assert dict(dg.provenance) == expected


def test_provenance_is_built_only_when_read():
    g = random_geometric_graph(10, 0.35, 0, seed=4)
    dg = non_identifiable_pairs(g)
    dg.lower_bound()
    assert "provenance" not in vars(dg)
    assert dg.provenance[next(iter(dg.rules["A"]))] >= {"A"}
    assert "provenance" in vars(dg)


def test_pseudo_geochromatic_number_shares_the_rule_b_set():
    g = random_geometric_graph(10, 0.35, 0, seed=4)
    px, _ = pseudo_geochromatic_number(g)
    dg = vars(g)["_distinctness"]  # X' left the memo that the bound and X read
    assert non_identifiable_pairs(g) is dg
    assert px == chromatic_number((g.n, dg.rules["A"] | dg.rules["B"]))[0]


def test_lower_bound_examples():
    assert geochromatic_lower_bound(figure_graphs("figure6")) == 6
    assert geochromatic_lower_bound(convex_clique(4)) == 4
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5), (6, 9)], [(0, 1), (1, 2), (2, 3)])
    assert geochromatic_lower_bound(plane) == chromatic_number(plane)[0]


def test_forced_pairs_memo_is_reused_and_does_not_keep_graph_alive():
    g = random_geometric_graph(10, 0.35, 0, seed=4)
    dg = non_identifiable_pairs(g)
    assert non_identifiable_pairs(g) is dg
    assert geochromatic_lower_bound(g) == dg.lower_bound() == chromatic_number((g.n, dg.forced_pairs))[0]
    assert "_chi" in vars(dg)  # the bound is kept on the pairs object
    with pytest.raises(TypeError):
        dg.provenance[(0, 1)] = frozenset()  # shared by every caller, so read-only
    with pytest.raises(TypeError):
        dg.rules["A"] = frozenset()
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
