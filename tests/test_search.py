"""The forward-checking search core returns exactly what direct search returns.

Each caller of search._backtrack is compared with the check-after-assign
reference in oracles.py, which tries the same vertex order and value order
and checks each value only after writing it. Forward checking may only cut
branches that hold no solution, so the first map must be the same map, and
a refutation a refutation.
"""

import itertools

import pytest

from geochrom import (
    chromatic_number,
    crossings_of,
    find_geometric_hom,
    find_noncollapsing_hom,
    non_identifiable_pairs,
    random_geometric_graph,
)
from geochrom.catalog import _CrossingTable, _maps_into
from geochrom.graphs import _adj_lists
from geochrom.search import _dsatur_greedy, _greedy_clique
from oracles import (
    reference_chromatic,
    reference_dsatur,
    reference_geometric_hom,
    reference_maps_into,
    reference_noncollapsing,
)

# (vertex count, edge probability, min crossing distance), three seeds each.
SHAPES = [(v, p, k) for v in (6, 9, 12) for p in (0.2, 0.35, 0.5) for k in (0, 1, 2)]
DRAWINGS = [random_geometric_graph(v, p, min_crossing_distance=k, seed=100 + 3 * i + j)
            for i, (v, p, k) in enumerate(SHAPES) for j in range(3)]
IDS = [f"{g.n}v{len(g.edges)}e{len(crossings_of(g))}c" for g in DRAWINGS]


def chromatic_reference(n, edges):
    adj = _adj_lists(n, edges)
    return reference_chromatic(n, edges, _greedy_clique(adj), reference_dsatur(adj))


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


def test_dsatur_greedy_matches_reference():
    for n, edges, name in colored_graphs():
        adj = _adj_lists(n, edges)
        assert _dsatur_greedy(adj) == reference_dsatur(adj), name


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


@pytest.mark.parametrize("n", [5, 6])
def test_maps_into_matches_reference_on_every_ordered_pair(n, store):
    entries = store.get(n).entries
    tables = [_CrossingTable(e.structure) for e in entries]
    found = set()
    for (a, ta), (b, tb) in itertools.product(zip(entries, tables), repeat=2):
        expected = reference_maps_into(n, a.structure.crossings, b.structure.crossings)
        assert _maps_into(ta, tb) == expected, (a.structure.hex, b.structure.hex)
        found.add(expected is None)
    assert found == {True, False}
