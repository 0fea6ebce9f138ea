import itertools
import re
import subprocess
import sys
import textwrap

import pytest

from geochrom import (
    FIGURE_TAGS,
    CatalogStore,
    Coloring,
    GeometricGraph,
    VertexMap,
    chromatic_number,
    convex_clique,
    crossing_structure,
    crossings_of,
    figure6_coloring,
    figure_graphs,
    find_geometric_hom,
    find_noncollapsing_hom,
    geochromatic_lower_bound,
    geochromatic_number,
    is_geometric_hom,
    is_graph_hom,
    is_proper,
    is_pseudo_coloring,
    pseudo_geochromatic_number,
    random_geometric_graph,
    separation_family,
    star_crossing,
)
import geochrom.graphs as graphs
import geochrom.homomorphism as homomorphism
from conftest import CACHE_DIR, forget_shipped
from oracles import brute_force_chromatic, brute_force_geometric_hom_exists


def edgeless(n):
    return GeometricGraph.build([(i * 10, i * i) for i in range(n)], [])


def test_is_graph_hom_basics():
    k4 = convex_clique(4)
    assert is_graph_hom(k4, k4, VertexMap((0, 1, 2, 3), 4))
    assert not is_graph_hom(k4, k4, VertexMap((0, 0, 0, 0), 4))
    collapsed = VertexMap((0, 0, 0, 0), 4).images
    assert collapsed[0] == collapsed[1]  # the edge (0, 1) collapses
    assert not is_graph_hom(k4, k4, VertexMap((0, 1, 2, 3, 0), 4))  # one image too many
    assert not is_graph_hom(k4, k4, VertexMap((0, 1, 2, 3), 5))  # into a K4 said to have 5 vertices


def test_star_bundled_map_is_graph_and_geometric_hom():
    g, beta = star_crossing(3)
    k4 = convex_clique(4)
    assert is_graph_hom(g, k4, beta)
    assert is_geometric_hom(g, k4, beta)
    # star edges land on hull pair {1,3} (ids 0,2), the crossing edge on {2,4} (ids 1,3)
    assert all(sorted((beta.images[0], beta.images[i])) == [0, 2] for i in range(1, 4))
    assert sorted((beta.images[4], beta.images[5])) == [1, 3]


def test_geometric_hom_needs_crossings_preserved():
    k4 = convex_clique(4)
    plane = GeometricGraph.build(
        [(0, 0), (30, 1), (15, 25), (16, 9)], itertools.combinations(range(4), 2)
    )
    assert len(crossings_of(plane)) == 0
    identity = VertexMap((0, 1, 2, 3), 4)
    assert is_graph_hom(k4, plane, identity)
    assert not is_geometric_hom(k4, plane, identity)
    # The two crossing diagonals of K4, sent onto one edge of K4 or onto two
    # edges sharing a vertex: graph homs whose crossing image is no crossing.
    diagonals = GeometricGraph(k4.points, frozenset({(0, 2), (1, 3)}))
    for target in (k4, crossing_structure(k4)):
        assert is_geometric_hom(diagonals, target, identity)
        for images in ((0, 0, 1, 1), (0, 1, 1, 2)):
            assert is_graph_hom(diagonals, target, VertexMap(images, 4))
            assert not is_geometric_hom(diagonals, target, VertexMap(images, 4))


def test_pseudo_coloring_refuses_an_improper_coloring_and_a_repeat_on_a_crossing():
    k4 = convex_clique(4)
    assert not is_proper(k4, Coloring((1, 2, 3, 4, 1), 4))  # one color too many
    edge = GeometricGraph.build([(0, 0), (10, 1)], [(0, 1)])
    assert not is_pseudo_coloring(edge, Coloring((1, 1), 1))  # no crossing, so only properness refuses it
    diagonals = GeometricGraph(k4.points, frozenset({(0, 2), (1, 3)}))
    assert is_pseudo_coloring(diagonals, Coloring((1, 2, 3, 4), 4))
    assert is_proper(diagonals, Coloring((1, 1, 2, 2), 2))
    assert not is_pseudo_coloring(diagonals, Coloring((1, 1, 2, 2), 2))  # proper, two colors on the crossing


def test_vertex_map_compose_verifies_as_geometric_hom():
    g, beta = star_crossing(2)
    k4 = convex_clique(4)
    rotate = VertexMap((1, 2, 3, 0), 4)  # hull rotation preserves convex crossings
    assert is_geometric_hom(k4, k4, rotate)
    composed = beta.compose(rotate)
    assert is_geometric_hom(g, k4, composed)
    with pytest.raises(ValueError, match="composition size mismatch"):
        beta.compose(VertexMap((0, 1, 2, 3, 4), 5))


def test_chromatic_number_examples():
    for n in range(1, 6):
        assert chromatic_number(edgeless(n)) == chromatic_number((n, [])) == (1, Coloring((1,) * n, 1))
    assert chromatic_number(figure_graphs("figure6"))[0] == 3
    assert chromatic_number(separation_family(2))[0] == 3
    assert chromatic_number(convex_clique(5))[0] == 5
    n, witness = chromatic_number(figure_graphs("figure3_right"))
    assert n == 2 and is_proper(figure_graphs("figure3_right"), witness)


@pytest.mark.parametrize("seed", range(12))
def test_chromatic_number_matches_brute_force(seed):
    g = random_geometric_graph(6, 0.5, seed=seed)
    n, witness = chromatic_number(g)
    assert n == brute_force_chromatic(g.n, g.edges)
    assert is_proper(g, witness)
    assert max(witness.colors) == n


def test_chromatic_number_reads_a_drawings_cached_rows(calls_of):
    g = figure_graphs("figure6")
    g = GeometricGraph(g.points, g.edges)  # no table of it is kept yet
    rows = calls_of(graphs._adj_rows)
    assert chromatic_number(g)[0] == 3
    assert g.structure.neighbour_rows is g.structure.neighbour_rows and [args[0] for args in rows] == [g.n]
    s = crossing_structure(g)
    for graph in (s, s, (g.n, g.edges), (g.n, g.edges)):
        assert chromatic_number(graph)[0] == 3
    # a structure builds its rows once, as a drawing does; an (n, edges) graph builds them on each call
    assert s.neighbour_rows is s.neighbour_rows and [args[0] for args in rows] == [g.n] * 4


def _answers(g, store) -> list:
    """chi, X', the bound, X (value, target form, map) at max_n=6 and the non-collapsing colorings of g."""
    chi, alpha = chromatic_number(g)
    x = geochromatic_number(g, store, max_n=6)
    return [chi, alpha, pseudo_geochromatic_number(g), geochromatic_lower_bound(g),
            x and (x.n, x.target.canonical_form, x.witness),
            find_noncollapsing_hom(g, chi), find_noncollapsing_hom(g, chi + 1)]


@pytest.mark.parametrize("tag", FIGURE_TAGS)
def test_a_drawing_and_its_structure_get_the_same_answers(tag, store):
    # A geometric homomorphism sees adjacency and crossings only, so every solver answers a fresh structure
    # as it answers the drawing that carries it.
    g = figure_graphs(tag)
    s = crossing_structure(g)
    assert s is not g.structure and _answers(s, store) == _answers(g, store)


def test_find_geometric_hom_identity_case():
    k4 = convex_clique(4)
    target = crossing_structure(k4)
    f = find_geometric_hom(k4, target)
    assert f is not None
    assert is_geometric_hom(k4, target, f)


def test_find_geometric_hom_figure1_none_both_ways():
    left = figure_graphs("figure1_left")
    right = figure_graphs("figure1_right")
    assert find_geometric_hom(right, crossing_structure(left)) is None
    assert find_geometric_hom(left, crossing_structure(right)) is None


def test_figure1_every_injective_map_fails():
    # complete sources force injectivity, so all 720 bijections is exhaustive
    left = figure_graphs("figure1_left")
    right = figure_graphs("figure1_right")
    for perm in itertools.permutations(range(6)):
        f = VertexMap(perm, 6)
        assert not is_geometric_hom(left, right, f)
        assert not is_geometric_hom(right, left, f)


def test_find_geometric_hom_star_beta_shape():
    g, _ = star_crossing(5)
    f = find_geometric_hom(g, crossing_structure(convex_clique(4)))
    assert f is not None
    assert is_geometric_hom(g, convex_clique(4), f)
    # the spokes all collapse onto one target edge, the crosser onto a crossing mate
    spoke_images = {tuple(sorted((f.images[0], f.images[i]))) for i in range(1, 6)}
    assert len(spoke_images) == 1


def _assert_matches_exhaustive(g, target):
    found = find_geometric_hom(g, target)
    expected = brute_force_geometric_hom_exists(
        g.n,
        sorted(g.edges),
        [c.edges() for c in crossings_of(g)],
        target.n,
        sorted(target.adjacency),
        sorted(target.crossings),
    )
    assert (found is not None) == expected
    if found is not None:
        assert is_geometric_hom(g, target, found)


@pytest.mark.parametrize("seed", range(8))
def test_find_geometric_hom_agrees_with_exhaustive(seed, store):
    g = random_geometric_graph(5, 0.45, seed=100 + seed)
    for n in (4, 5):
        for entry in store.get(n).entries:
            _assert_matches_exhaustive(g, entry.structure)


@pytest.mark.parametrize("seed", range(3))
def test_find_geometric_hom_agrees_with_exhaustive_six_vertices(seed, store):
    g = random_geometric_graph(6, 0.4, seed=200 + seed)
    targets = [e.structure for e in store.get(4).entries]
    targets += [e.structure for e in store.get(6).entries[:3]]
    for target in targets:
        _assert_matches_exhaustive(g, target)


def test_geochromatic_number_rejects_bad_max_n(store):
    for max_n in (-1, 8, 6.0, True, "6", None):
        with pytest.raises(ValueError, match=re.escape(f"max_n must be an int in 0..7, got {max_n!r}")):
            geochromatic_number(edgeless(3), store, max_n=max_n)


def test_geochromatic_number_at_max_n_zero(store):
    # K_0 is the only target: it takes the empty drawing and nothing with a vertex.
    res = geochromatic_number(edgeless(0), store, max_n=0)
    assert (res.n, res.target.hex, res.witness) == (0, "000000000000", VertexMap((), 0))
    assert geochromatic_number(edgeless(1), store, max_n=0) is None


def test_geochromatic_number_small_cases(store):
    assert geochromatic_number(edgeless(4), store).n == 1
    assert geochromatic_number(edgeless(2), store).n == 1
    one_edge = GeometricGraph.build([(0, 0), (10, 1), (20, 5)], [(0, 2)])
    assert geochromatic_number(one_edge, store).n == 2
    bipartite_plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5)], [(0, 1), (1, 2)])
    assert geochromatic_number(bipartite_plane, store).n == 2
    triangle = GeometricGraph.build([(0, 0), (10, 0), (5, 9)], [(0, 1), (1, 2), (0, 2)])
    assert geochromatic_number(triangle, store).n == 3
    assert geochromatic_number(convex_clique(4), store).n == 4


def test_geochromatic_number_of_the_empty_drawing_is_zero(store):
    # The empty map into K_0 is a geometric hom; chi, X' and the bound read 0 as well.
    res = geochromatic_number(edgeless(0), store)
    assert (res.n, res.target.hex, res.witness) == (0, "000000000000", VertexMap((), 0))
    assert is_geometric_hom(edgeless(0), res.target, res.witness)


def test_geochromatic_number_figure6(store):
    res = geochromatic_number(figure_graphs("figure6"), store, max_n=7)
    assert res is not None and res.n == 6
    assert is_geometric_hom(figure_graphs("figure6"), res.target, res.witness)


def test_geochromatic_number_unresolved(store):
    # force unresolved by capping the search below the known answer
    res = geochromatic_number(figure_graphs("figure6"), store, max_n=5)
    assert res is None


def test_geochromatic_number_over_maximal_targets_matches_every_entry(store):
    def x_over_every_entry(g, max_n):
        for n in range(max(1, geochromatic_lower_bound(g)), max_n + 1):
            if any(find_geometric_hom(g, e.structure) is not None for e in store.get(n).entries):
                return n
        return None

    outcomes = set()
    for seed in range(60):
        g = random_geometric_graph(10, 0.35, 0, seed=seed)
        res = geochromatic_number(g, store, max_n=6)
        expected = x_over_every_entry(g, 6)
        assert (res.n if res else None) == expected
        if res:
            assert res.target in {e.structure for e in store.get(res.n).maximal}
        outcomes.add(res is None)
    assert outcomes == {True, False}


def test_convex_target_is_tried_before_the_maximal_view_is_computed(store):
    forget_shipped()  # an earlier test's maximal view would be on this process's shipped K5
    fresh = CatalogStore(CACHE_DIR, build_missing=False)
    res = geochromatic_number(convex_clique(5), fresh, max_n=5)
    assert res.n == 5 and res.target == crossing_structure(convex_clique(5))
    assert "maximal" not in vars(fresh.get(5))  # no dominance test was paid for


def test_geochromatic_number_searches_through_find_geometric_hom(store, monkeypatch):
    calls = []

    def counting(G, target):
        calls.append(target)
        return find_geometric_hom(G, target)

    monkeypatch.setattr(homomorphism, "find_geometric_hom", counting)
    convex6 = crossing_structure(convex_clique(6))
    res = geochromatic_number(figure_graphs("figure6"), store, max_n=6)
    assert calls == [convex6] and res.target is calls[-1]  # lower bound 6, resolved by the convex K6
    calls.clear()
    res = geochromatic_number(figure_graphs("figure1_left"), store, max_n=6)
    assert res.n == 6 and res.target != convex6 and res.target is calls[-1]
    assert convex6 in calls[:-1]


def test_a_drawing_builds_its_source_tables_once_across_targets(store, calls_of):
    g = figure_graphs("figure1_left")
    g = GeometricGraph(g.points, g.edges)  # no table of it is kept yet
    for n in range(3, 7):
        store.get(n).maximal  # the targets and their view are ready before counting
    tried = calls_of(homomorphism.find_geometric_hom)
    partners = calls_of(graphs._crossing_partners)
    rows = calls_of(graphs._adj_rows)
    res = geochromatic_number(g, store, max_n=6)
    assert res.n == 6 and len(tried) > 1
    assert [args[0] for args in partners] == [g.n] and [args[0] for args in rows] == [g.n]


def test_geochromatic_number_invariant_under_relabel_and_scale(store):
    g = figure_graphs("figure3_right")
    base = geochromatic_number(g, store).n
    perm = [3, 0, 5, 1, 7, 2, 6, 4]  # arbitrary relabeling
    inv = {perm[i]: i for i in range(8)}
    pts = [g.points[inv[i]] for i in range(8)]
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
    relabeled = GeometricGraph.build([(p.x * 7 + 3, p.y * 7 - 11) for p in pts], edges)
    assert geochromatic_number(relabeled, store).n == base


def test_pseudo_geochromatic_examples():
    n, witness = pseudo_geochromatic_number(figure_graphs("figure6"))
    assert n == 5
    assert is_pseudo_coloring(figure_graphs("figure6"), witness)
    assert is_pseudo_coloring(figure_graphs("figure6"), figure6_coloring())

    # plane graph: X' collapses to chi
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5), (5, 9)], [(0, 1), (1, 2), (0, 3)])
    assert pseudo_geochromatic_number(plane)[0] == chromatic_number(plane)[0]


def test_pseudo_geochromatic_separation_values():
    # frozen from the exact solver (the family's nominal gap values are off;
    # the acceptance suite documents this as criterion 11)
    assert pseudo_geochromatic_number(separation_family(1))[0] == 3
    assert pseudo_geochromatic_number(separation_family(2))[0] == 5


def test_sandwich_on_assorted_instances(store):
    instances = [
        figure_graphs("figure6"),
        figure_graphs("figure3_left"),
        star_crossing(4)[0],
        separation_family(2),
    ]
    for g in instances:
        chi = chromatic_number(g)[0]
        px = pseudo_geochromatic_number(g)[0]
        res = geochromatic_number(g, store, max_n=6)
        assert chi <= px
        if res is not None:
            assert px <= res.n
        if crossings_of(g):
            assert px >= 4


def test_witness_checks_hold_without_asserts():
    # python -O strips assert statements; a search that returns a non-witness must still be refused.
    script = textwrap.dedent("""
        import types
        import geochrom.homomorphism as h
        from geochrom import Coloring, convex_clique, figure_graphs
        g = figure_graphs("figure6")
        print(__debug__)
        h._find_hom = lambda source, *rest: [0] * source.n
        try:
            print(h.find_geometric_hom(g, convex_clique(6)))
        except RuntimeError as exc:
            print(type(exc).__name__)
        h.non_identifiable_pairs = lambda G: types.SimpleNamespace(_pseudo=(1, Coloring((1,) * G.n, 1)))
        try:
            print(h.pseudo_geochromatic_number(g))
        except RuntimeError as exc:
            print(type(exc).__name__)
    """)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert done.stdout.split() == ["False", "RuntimeError", "RuntimeError"], done.stderr
