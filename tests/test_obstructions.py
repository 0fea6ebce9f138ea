import gc
import itertools
import weakref

import pytest

from geochrom import (
    CrossingStructure,
    GeometricGraph,
    chromatic_number,
    convex_clique,
    figure_graphs,
    geochromatic_lower_bound,
    geochromatic_number,
    non_identifiable_pairs,
    pseudo_geochromatic_number,
    random_geometric_graph,
)
from geochrom import obstructions, search
from geochrom.obstructions import _union_has_odd_cycle
from geochrom.search import _greedy_clique
from oracles import (
    crossing_pairs_raw,
    odd_cycle_pairs,
    odd_path_pairs,
    reference_distinctness,
    reference_union_has_odd_cycle,
    two_sides,
)
from test_search import DENSE, DRAWINGS, SEEDED, chromatic_reference


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


def crossed_by(g):
    """Each crossed edge of g, by the raw oracle, with the edges crossing it."""
    crossed = {}
    for e1, e2 in crossings_of_raw(g):
        crossed.setdefault(e1, []).append(e2)
        crossed.setdefault(e2, []).append(e1)
    return crossed


def component_masks(label):
    """(members, side-1 members) of each component of a bipartite graph, from its two_sides labels."""
    masks = {}
    for v, (component, side) in label.items():
        m, s = masks.get(component, (0, 0))
        masks[component] = (m | 1 << v, s | side << v)
    return list(masks.values())


def test_rule_d_component_masks_match_the_shared_vertex_test():
    # Every pair of crossed edges at a vertex, by component masks and by the former per-vertex ties.
    found = {True: 0, False: 0}  # odd unions, by whether each graph had one component
    for g in SEEDED + DENSE:
        labels = {e: two_sides(g.n, pairs) for e, pairs in crossed_by(g).items()}
        comps = {e: component_masks(label) for e, label in labels.items()}
        for e1, e2 in itertools.combinations(labels, 2):
            if set(e1) & set(e2):
                odd = _union_has_odd_cycle(comps[e1], comps[e2])
                assert odd == reference_union_has_odd_cycle(labels[e1], labels[e2]), (e1, e2)
                found[len(comps[e1]) == 1 == len(comps[e2])] += odd
    assert found[True] > 50 and found[False] > 50


def test_lower_bound_is_searched_from_x_prime(monkeypatch):
    # X' is chi of a subgraph of the forced pairs, so the bound's search may start there.
    tried, counts, starts_above_clique = 0, [], 0
    search_core = search._backtrack

    def counting(domains, *rest, **options):
        counts.append(max(domains).bit_length())  # k: every vertex off the clique starts on all k colors
        return search_core(domains, *rest, **options)

    monkeypatch.setattr(search, "_backtrack", counting)
    for g in DRAWINGS + SEEDED:
        dg = non_identifiable_pairs(GeometricGraph(g.points, g.edges))  # no search memo from another test
        px, pseudo = dg._pseudo
        assert (px, pseudo.colors) == chromatic_reference(g.n, dg.rules["A"] | dg.rules["B"])
        counts.clear()
        bound = dg.lower_bound()
        assert bound == chromatic_reference(g.n, dg.forced_pairs)[0]
        assert all(k >= px for k in counts), counts
        tried += len(counts)
        forced = [a | b | c | d for a, b, c, d in zip(*(dg.rows[r] for r in "ABCD"))]
        starts_above_clique += len(_greedy_clique(forced)) < px
    assert tried > 0 and starts_above_clique > 0


def test_lower_bound_shortcut_by_the_x_prime_coloring_equals_the_search():
    # When X''s coloring is proper on all four rows it certifies the bound; otherwise the search runs.
    certified = searched = 0
    for g in DRAWINGS + SEEDED + DENSE[:60]:
        dg = non_identifiable_pairs(GeometricGraph(g.points, g.edges))  # no bound memo from another test
        px, pseudo = dg._pseudo
        forced = [a | b | c | d for a, b, c, d in zip(*(dg.rows[r] for r in "ABCD"))]
        assert dg.lower_bound() == search._chromatic(forced, px)[0]
        colors = pseudo.colors
        if all(colors[v] != colors[w] for v, w in dg.forced_pairs):
            certified += 1
        else:
            searched += 1
    assert certified > 0 and searched > 0, (certified, searched)


def test_rule_sets_match_the_tag_per_pair_reference():
    for g in DRAWINGS + SEEDED:
        expected = reference_distinctness(g.n, g.edges, crossings_of_raw(g))
        dg = non_identifiable_pairs(g)
        assert dict(dg.rules) == {rule: frozenset(p for p, ts in expected.items() if rule in ts) for rule in "ABCD"}
        assert dg.forced_pairs == frozenset(expected)
        assert dict(dg.provenance) == expected


def test_rule_d_decides_every_pair_of_crossed_edges_at_a_vertex_by_union_find(monkeypatch):
    # On the inputs of the tag-per-pair test above: every pair of crossed edges at a vertex reaches the
    # union-find, pairs whose crossed sets have one component each and the rest alike, and some of the
    # one-component pairs force their ends apart.
    found = []
    union = obstructions._union_has_odd_cycle
    monkeypatch.setattr(obstructions, "_union_has_odd_cycle", lambda c1, c2: found.append(union(c1, c2)) or found[-1])
    one_component = odd_one_component = several_components = 0
    for g in DRAWINGS + SEEDED:
        labels = {e: two_sides(g.n, pairs) for e, pairs in crossed_by(g).items()}
        for e1, e2 in itertools.combinations(labels, 2):
            if set(e1) & set(e2):
                if len({c for c, _ in labels[e1].values()}) == 1 == len({c for c, _ in labels[e2].values()}):
                    one_component += 1
                    odd_one_component += reference_union_has_odd_cycle(labels[e1], labels[e2])
                else:
                    several_components += 1
        non_identifiable_pairs(GeometricGraph(g.points, g.edges))  # no memo from another test
    assert len(found) == one_component + several_components
    assert one_component > 100 and odd_one_component > 10 and several_components > 100 and sum(found) > 10


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
    dg = vars(g.structure)["_distinctness"]  # X' left the memo that the bound and X read
    assert non_identifiable_pairs(g) is dg
    assert px == chromatic_number((g.n, dg.rules["A"] | dg.rules["B"]))[0]


def test_lower_bound_examples():
    assert geochromatic_lower_bound(figure_graphs("figure6")) == 6
    assert geochromatic_lower_bound(convex_clique(4)) == 4
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5), (6, 9)], [(0, 1), (1, 2), (2, 3)])
    assert geochromatic_lower_bound(plane) == chromatic_number(plane)[0]


def test_crossings_that_no_drawing_realizes_are_refused_naming_the_edge(store):
    # The edges crossing one edge have one end on each side of its line, so in a drawing they never
    # form an odd cycle; here (0,1), (1,2) and (0,2) all cross (3,4).
    triangle = [(0, 1), (1, 2), (0, 2)]
    s = CrossingStructure(5, triangle + [(3, 4)], [(e, (3, 4)) for e in triangle])
    for solve in (pseudo_geochromatic_number, geochromatic_lower_bound, lambda g: geochromatic_number(g, store, 5)):
        with pytest.raises(ValueError, match=r"the edges crossing \(3,4\) form an odd cycle, so no drawing"):
            solve(s)


def test_forced_pairs_memo_is_reused_and_does_not_keep_graph_alive():
    g = random_geometric_graph(10, 0.35, 0, seed=4)
    dg = non_identifiable_pairs(g)
    assert non_identifiable_pairs(g) is dg and non_identifiable_pairs(g.structure) is dg  # one memo, on the structure
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
