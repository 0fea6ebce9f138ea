"""The forward-checking search core returns exactly what direct search returns.

Each caller of search._backtrack is compared with the check-after-assign
reference in oracles.py, which tries the same vertex order and value order
and checks each value only after writing it. Forward checking may only cut
branches that hold no solution, so the first map must be the same map, and
a refutation a refutation.
"""

import gc
import itertools
import random
import sys

import pytest

from geochrom import (
    CatalogStore,
    Coloring,
    GeometricGraph,
    Point,
    VertexMap,
    chromatic_number,
    convex_clique,
    crossing_structure,
    crossings_of,
    find_geometric_hom,
    find_noncollapsing_hom,
    geochromatic_number,
    is_geometric_hom,
    is_graph_hom,
    is_proper,
    non_identifiable_pairs,
    random_geometric_graph,
    star_crossing,
)
from geochrom import search
from geochrom.catalog import _edge_counts, _maps_into
from geochrom.graphs import _adj_lists, _adj_rows
from geochrom.search import _chromatic, _dsatur_greedy, _greedy_clique
from oracles import (
    brute_force_chromatic,
    reference_chromatic,
    reference_dsatur,
    reference_geometric_hom,
    reference_greedy_clique,
    reference_maps_into,
    reference_noncollapsing,
)

# (vertex count, edge probability, min crossing distance), three seeds each.
SHAPES = [(v, p, k) for v in (6, 9, 12) for p in (0.2, 0.35, 0.5) for k in (0, 1, 2)]
DRAWINGS = [random_geometric_graph(v, p, min_crossing_distance=k, seed=100 + 3 * i + j)
            for i, (v, p, k) in enumerate(SHAPES) for j in range(3)]
IDS = [f"{g.n}v{len(g.edges)}e{len(crossings_of(g))}c" for g in DRAWINGS]
SEEDED = [random_geometric_graph(6 + seed % 6, 0.3 + 0.05 * (seed % 5), seed=4000 + seed) for seed in range(40)]
DENSE = [random_geometric_graph(14 + seed % 3, 0.4 + 0.05 * (seed % 3), seed=5000 + seed) for seed in range(200)]


def chromatic_reference(n, edges):
    adj = _adj_lists(n, edges)
    return reference_chromatic(n, edges, reference_greedy_clique(adj), reference_dsatur(adj))


def colored_graphs():
    """Each drawing, its forced-pair graph (the lower bound) and its six-pair graph (X')."""
    for g, name in zip(DRAWINGS, IDS):
        six_pairs = {pair for c in crossings_of(g) for pair in itertools.combinations(sorted(c.vertices), 2)}
        for edges in (g.edges, non_identifiable_pairs(g).forced_pairs, g.edges | six_pairs):
            if edges:
                yield g.n, edges, name


def test_chromatic_number_matches_reference():
    for n, edges, name in colored_graphs():
        k, coloring = chromatic_number((n, edges))
        assert (k, coloring.colors) == chromatic_reference(n, edges), name


def test_chromatic_number_of_the_empty_graph_is_zero():
    assert chromatic_number((0, [])) == (0, Coloring((), 0))
    assert chromatic_number(convex_clique(0)) == (0, Coloring((), 0))


def test_reversed_pairs_read_as_sorted_pairs():
    for n, edges, name in colored_graphs():
        reversed_pairs = [(v, u) for u, v in edges]
        k, coloring = chromatic_number((n, edges))
        assert chromatic_number((n, reversed_pairs)) == (k, coloring), name
        assert is_graph_hom((n, edges), (n, reversed_pairs), VertexMap(tuple(range(n)), n)), name


@pytest.mark.parametrize("graph, named", [((2, [(0, 0)]), r"edge \(0,0\)"), ((2, [(0, 5)]), r"edge \(0,5\)"),
                                          ((2, [(-1, 1)]), r"edge \(-1,1\)"), ((-1, []), "n must"),
                                          ((True, []), "n must")])
def test_malformed_abstract_graph_is_refused(graph, named):
    with pytest.raises(ValueError, match=named):
        chromatic_number(graph)
    with pytest.raises(ValueError, match=named):
        is_graph_hom(graph, (2, [(0, 1)]), VertexMap((0, 1), 2))


def rows_and_lists():
    """Each colored graph, and the all-rules graph of each SEEDED and DENSE drawing, as int rows and as sets.

    The rows of the latter are the A|B|C|D rows the bound colors, and the sets
    come from the forced pairs, so the two are read independently.
    """
    for n, edges, name in colored_graphs():
        yield _adj_rows(n, edges), _adj_lists(n, edges), name
    for i, g in enumerate(SEEDED + DENSE):
        dg = non_identifiable_pairs(g)
        yield [a | b | c | d for a, b, c, d in zip(*(dg.rows[r] for r in "ABCD"))], _adj_lists(g.n, dg.forced_pairs), i


def test_greedy_clique_matches_reference():
    for rows, adj, name in rows_and_lists():
        assert _greedy_clique(rows) == reference_greedy_clique(adj), name


def test_dsatur_greedy_matches_reference():
    for rows, adj, name in rows_and_lists():
        assert _dsatur_greedy(rows) == reference_dsatur(adj), name


def test_chromatic_sets_up_no_search_when_the_bounds_meet(monkeypatch):
    # The clique, the floor, or 3 once DSATUR uses a third color, reaching the DSATUR count proves that coloring
    # optimal.
    calls = []
    core = search._backtrack
    monkeypatch.setattr(search, "_backtrack", lambda *args, **options: calls.append(1) or core(*args, **options))
    met = met_by_three = searched = 0
    for rows, adj, name in rows_and_lists():
        greedy = _dsatur_greedy(rows)
        ub = max(greedy, default=0)
        clique = len(_greedy_clique(rows))
        for floor in (0, ub):
            calls.clear()
            k, coloring = _chromatic(rows, floor)
            if max(clique, floor, min(ub, 3)) >= ub:
                assert (k, list(coloring.colors), calls) == (ub, greedy, []), name
                met += 1
                met_by_three += max(clique, floor) < ub
            else:
                assert calls, name
                searched += 1
    assert met > 100 and met_by_three > 10 and searched > 10


def bipartite_rows(rng):
    """A seeded bipartite graph as int rows: sides split at random, often sparse enough to leave isolated vertices."""
    n = rng.randint(1, 24)
    side = [rng.random() < 0.5 for _ in range(n)]
    p = rng.choice((0.05, 0.1, 0.2, 0.4, 0.8))
    return _adj_rows(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if side[u] != side[v]
                         and rng.random() < p])


def components(rows):
    """The number of components of a graph given as int rows."""
    left, count = (1 << len(rows)) - 1, 0
    while left:
        reached = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rows[low.bit_length() - 1] & ~reached
            reached |= new
            frontier |= new
        left &= ~reached
        count += 1
    return count


def test_dsatur_two_colors_every_bipartite_graph():
    # So a third DSATUR color proves chi >= 3, and _chromatic searches no count below 3 once DSATUR used one.
    rng = random.Random(38)
    disconnected = isolated = edged = 0
    for _ in range(600):
        rows = bipartite_rows(rng)
        assert max(_dsatur_greedy(rows)) <= 2, rows
        disconnected += components(rows) > 1
        isolated += 0 in rows
        edged += any(rows)
    assert disconnected > 100 and isolated > 100 and edged > 400


def test_chromatic_matches_brute_force_where_dsatur_uses_three_colors_and_the_clique_two():
    # The graphs where the cut at 3 decides: a search from 2 would have run, and would have failed.
    rng = random.Random(39)
    by_dsatur = {3: 0, 4: 0}
    for _ in range(3000):
        n = rng.randint(5, 11)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        rows = _adj_rows(n, edges)
        ub = max(_dsatur_greedy(rows))
        if ub < 3 or len(_greedy_clique(rows)) != 2:
            continue
        k, coloring = _chromatic(rows, 0)
        assert k == brute_force_chromatic(n, edges), edges
        assert all(coloring.colors[u] != coloring.colors[v] for u, v in edges) and max(coloring.colors) == k
        by_dsatur[min(ub, 4)] += 1
    assert by_dsatur[3] > 50 and by_dsatur[4] > 5, by_dsatur


def test_find_geometric_hom_matches_reference_on_every_maximal_target(store):
    refuted = mapped = 0
    for g, name in zip(DRAWINGS, IDS):
        apart = non_identifiable_pairs(g).forced_pairs - g.edges
        for n in range(3, 7):
            for entry in store.get(n).maximal:
                s = entry.structure
                found = find_geometric_hom(g, s)
                expected = reference_geometric_hom(g.n, g.edges, crossings_of(g), apart,
                                                   s.n, s.adjacency, s.crossings)
                assert (found and found.images) == expected, (name, n, s.hex)
                refuted += expected is None
                mapped += expected is not None
    assert refuted > 100 and mapped > 100


def test_find_noncollapsing_hom_matches_reference():
    refuted = found_some = 0
    for g, name in zip(DRAWINGS, IDS):
        chi = chromatic_number(g)[0]
        for colors in range(1, chi + 3):
            found = find_noncollapsing_hom(g, colors)
            expected = reference_noncollapsing(g.n, g.edges, crossings_of(g), colors)
            assert (found and found.colors) == expected, (name, colors)
            refuted += expected is None
            found_some += expected is not None
    assert refuted > 50 and found_some > 50


def maps_into(source, target):
    """catalog._maps_into between two structures, with the per-edge counts the maximal view keeps per entry."""
    return _maps_into(source, target, _edge_counts(source), _edge_counts(target))


@pytest.mark.parametrize("n", [5, 6])
def test_maps_into_matches_reference_on_every_ordered_pair(n, store):
    entries = store.get(n).entries
    found = set()
    for a, b in itertools.product(entries, repeat=2):
        expected = reference_maps_into(n, a.structure.crossings, b.structure.crossings)
        assert maps_into(a.structure, b.structure) == expected, (a.structure.hex, b.structure.hex)
        found.add(expected is None)
    assert found == {True, False}


def test_maps_into_matches_reference_on_k7_dominance_tests(store):
    # The pairs the maximal view can test: an entry and a maximal entry with more crossings.
    cat = store.get(7)
    pairs = [(a, b) for a in cat.entries for b in cat.maximal
             if len(b.structure.crossings) > len(a.structure.crossings)]
    assert len(pairs) == 1504
    found = set()
    for a, b in pairs:
        expected = reference_maps_into(7, a.structure.crossings, b.structure.crossings)
        assert maps_into(a.structure, b.structure) == expected, (a.structure.hex, b.structure.hex)
        found.add(expected is None)
    assert found == {True, False}


def test_every_search_maps_a_path_longer_than_the_recursion_limit():
    # The search keeps one frame per mapped vertex on a list, so a source of any size maps in one call.
    g = GeometricGraph([Point(i, i * i) for i in range(1200)], [(i, i + 1) for i in range(1199)])
    assert g.n > sys.getrecursionlimit()
    f = find_geometric_hom(g, convex_clique(2))
    assert f is not None and is_geometric_hom(g, convex_clique(2), f)
    coloring = find_noncollapsing_hom(g, 3)
    assert coloring is not None and is_proper(g, coloring)
    assert geochromatic_number(g, CatalogStore(None), max_n=2).n == 2


def test_searches_and_canonical_labelling_leave_no_reference_cycle():
    # What a search or a canonical form allocates is freed as it returns, not left for the cyclic collector.
    g, _ = star_crossing(3)
    gc.collect()
    gc.disable()
    try:
        assert find_geometric_hom(g, convex_clique(4)) is not None
        assert find_noncollapsing_hom(g, 4) is not None
        crossing_structure(convex_clique(8)).canonical_form
        assert gc.collect() == 0
    finally:
        gc.enable()
