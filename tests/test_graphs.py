import gc
import inspect
import itertools
import json
import math
import random
import sys
import weakref

import pytest

from geochrom import (
    FIGURE_TAGS,
    Crossing,
    CrossingStructure,
    GeometricGraph,
    GraphFormatError,
    Point,
    convex_clique,
    convex_crossing_rule,
    crossing_distance,
    crossing_structure,
    crossings_of,
    figure_graphs,
    find_geometric_hom,
    graph_from_json_dict,
    graph_to_json_dict,
    is_general_position,
    min_pairwise_crossing_distance,
    random_geometric_graph,
    separation_family,
    star_crossing,
)
from geochrom import graphs
from geochrom.graphs import _crossing_gap, _form_bytes, _read_json
from oracles import (
    crossing_pairs_raw,
    graph_distance,
    orient,
    parabola_chain,
    reference_canonical_form,
    reference_crossings_too_close,
    reference_ir_canonical_form,
    reference_min_crossing_distance,
    reference_search_start,
    reference_signature_pass,
)


def x_gadget(shift=0):
    """Two segments crossing in an X, optionally translated."""
    pts = [(0 + shift, 0), (10 + shift, 10), (0 + shift, 10), (10 + shift, 0)]
    return GeometricGraph.build(pts, [(0, 1), (2, 3)])


def test_graph_validation():
    with pytest.raises(ValueError):
        GeometricGraph.build([(0, 0), (1, 1), (2, 2)], [])  # collinear
    with pytest.raises(ValueError):
        GeometricGraph.build([(0, 0), (1, 0)], [(0, 2)])  # missing id
    with pytest.raises(ValueError):
        GeometricGraph.build([(0, 0), (1, 0)], [(1, 1)])  # loop


def test_convex_k4_has_single_diagonal_crossing():
    g = convex_clique(4)
    cs = crossings_of(g)
    assert cs == frozenset({Crossing.make((0, 2), (1, 3))})


def test_plane_drawing_has_no_crossings():
    path = GeometricGraph.build([(0, 0), (10, 1), (20, 5), (30, 2)], [(0, 1), (1, 2), (2, 3)])
    assert crossings_of(path) == frozenset()


def test_figure6_crossing_set_matches_rational_oracle():
    g = figure_graphs("figure6")
    expected = crossing_pairs_raw([(p.x, p.y) for p in g.points], g.edges)
    assert {(c.e1, c.e2) for c in crossings_of(g)} == expected
    assert expected == {
        ((0, 1), (3, 5)),
        ((0, 1), (4, 5)),
        ((0, 2), (3, 5)),
        ((1, 2), (4, 5)),
    }


def general_position_points(rng, n, span):
    """n random points of [-span, span]^2 with no three collinear, by the oracle's orientation."""
    pts = []
    while len(pts) < n:
        q = (rng.randint(-span, span), rng.randint(-span, span))
        if q not in pts and all(orient(a, b, q) for a, b in itertools.combinations(pts, 2)):
            pts.append(q)
    return pts


@pytest.mark.parametrize("span", [8, 40, 10**6, 2**30])
def test_drawing_crossings_match_rational_oracle(span):
    # at 2^30, the Point bound, the determinants are products of 31-bit differences
    rng = random.Random(f"crossings:{span}")
    for n in range(4, 10):
        for _ in range(3):
            pts = general_position_points(rng, n, span)
            complete = list(itertools.combinations(range(n), 2))
            for edges in (complete, [e for e in complete if rng.random() < 0.4]):
                g = GeometricGraph.build(pts, edges)
                assert {(c.e1, c.e2) for c in crossings_of(g)} == crossing_pairs_raw(pts, edges), (pts, edges)


def _awkward_drawings(rng):
    """Seeded drawings with vertical and horizontal edges, shared endpoints and isolated vertices, n = 0 to 11."""
    yield GeometricGraph.build([], [])
    yield GeometricGraph.build([(3, 4)], [])
    # a vertical and a horizontal edge crossing, two edges sharing ends with them, and two isolated vertices
    yield GeometricGraph.build([(0, -5), (0, 5), (-5, 1), (5, 1), (7, 9), (-9, -8)], [(0, 1), (2, 3), (1, 3), (0, 2)])
    for n in range(2, 12):
        for _ in range(4):
            pts = general_position_points(rng, n, 12)
            verticals = [(u, v) for u, v in itertools.combinations(range(n), 2) if pts[u][0] == pts[v][0]]
            horizontals = [(u, v) for u, v in itertools.combinations(range(n), 2) if pts[u][1] == pts[v][1]]
            edges = [e for e in itertools.combinations(range(n - 1), 2) if rng.random() < 0.5]
            # vertex n-1 lies only on vertical and horizontal edges, so it is often isolated
            yield GeometricGraph.build(pts, edges + verticals + horizontals)


def test_sorted_crossings_are_the_sorted_crossing_set_and_match_the_rational_oracle():
    rng = random.Random("sorted-crossings")
    seen = {"vertical": 0, "horizontal": 0, "shared end": 0, "isolated": 0, "crossing": 0}
    for g in _awkward_drawings(rng):
        pts = [(p.x, p.y) for p in g.points]
        assert g.sorted_crossings == tuple(sorted(g.crossings))
        assert g.crossings == crossings_of(g) == frozenset(g.sorted_crossings)
        assert {(c.e1, c.e2) for c in g.crossings} == crossing_pairs_raw(pts, g.edges), (pts, g.edges)
        assert all(type(c) is Crossing for c in g.sorted_crossings)
        seen["vertical"] += any(pts[u][0] == pts[v][0] for u, v in g.edges)
        seen["horizontal"] += any(pts[u][1] == pts[v][1] for u, v in g.edges)
        seen["shared end"] += any(set(e) & set(f) for e, f in itertools.combinations(g.edges, 2))
        seen["isolated"] += len(set().union(*g.edges)) < g.n
        seen["crossing"] += bool(g.crossings)
    assert min(seen.values()) >= 5, seen


def test_crossings_invariant_under_translation_and_scaling():
    g = x_gadget()
    moved = GeometricGraph.build(
        [(p.x * 3 + 100, p.y * 3 - 50) for p in g.points], g.edges
    )
    assert {(c.e1, c.e2) for c in crossings_of(g)} == {(c.e1, c.e2) for c in crossings_of(moved)}


def test_crossing_distance_figures():
    left = figure_graphs("figure3_left")
    c1, c2 = sorted(crossings_of(left))
    assert crossing_distance(left, c1, c2) == 2
    assert crossing_distance(left, c1, c1) == 0
    assert min_pairwise_crossing_distance(left) == 2

    right = figure_graphs("figure3_right")
    d1, d2 = sorted(crossings_of(right))
    assert crossing_distance(right, d1, d2) == 1
    assert min_pairwise_crossing_distance(right) == 1


def test_crossing_distance_matches_bfs_oracle():
    g = figure_graphs("figure3_left")
    c1, c2 = sorted(crossings_of(g))
    expected = graph_distance(g.n, g.edges, c1.vertices, c2.vertices)
    assert crossing_distance(g, c1, c2) == expected
    assert crossing_distance(g, c2, c1) == expected


def test_crossing_distance_infinite_across_components():
    a = x_gadget()
    b = x_gadget(shift=1000)
    pts = [(p.x, p.y) for p in a.points] + [(p.x, p.y + 1) for p in b.points]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    g = GeometricGraph.build(pts, edges)
    c1, c2 = sorted(crossings_of(g))
    assert crossing_distance(g, c1, c2) == math.inf
    assert min_pairwise_crossing_distance(g) == math.inf


def test_min_distance_single_crossing_is_infinite():
    assert min_pairwise_crossing_distance(convex_clique(4)) == math.inf


def two_crossings(seed, length, extra):
    """Two X crossings joined by a path of `length` edges, plus `extra` random edges."""
    rng = random.Random(seed)
    while True:
        pts = []
        for cx in (0, 1000):
            pts += [(cx + rng.randint(-9, 0), rng.randint(-9, 0)), (cx + rng.randint(40, 49), rng.randint(40, 49)),
                    (cx + rng.randint(-9, 0), rng.randint(40, 49)), (cx + rng.randint(40, 49), rng.randint(-9, 0))]
        pts += [(rng.randint(100, 900), rng.randint(200, 900)) for _ in range(max(length - 1, 0))]
        path = [1, *range(8, len(pts)), 6] if length else []
        edges = [(0, 1), (2, 3), (4, 5), (6, 7), *zip(path, path[1:])]
        edges += [tuple(rng.sample(range(len(pts)), 2)) for _ in range(extra)]
        if is_general_position([Point(*q) for q in pts]):
            return GeometricGraph.build(pts, edges)


def assert_distance_matches_oracles(g):
    crossings = sorted(crossings_of(g))
    gap = reference_min_crossing_distance(g.n, g.edges, crossings)
    assert min_pairwise_crossing_distance(g) == gap
    for c1, c2 in itertools.combinations(crossings[:6], 2):
        assert crossing_distance(g, c1, c2) == graph_distance(g.n, g.edges, c1.vertices, c2.vertices)
    for edges in (g.edges, sorted(g.edges)):
        for k in range(7):  # a threshold above 2 stops the BFS early
            assert _crossing_gap(g.n, edges, crossings, k)[0] == min(gap, k)
        for k in (0, 1, 2):
            assert _crossing_gap(g.n, edges, crossings, k)[1] == reference_crossings_too_close(edges, crossings, k)


@pytest.mark.parametrize("seed", range(36))
def test_linear_distance_rule_matches_pairwise_bfs(seed):
    if seed % 2:
        g = two_crossings(seed, (seed // 2) % 6, (seed // 12) % 3)
    else:
        g = random_geometric_graph(5 + seed % 8, 0.3, seed=9000 + seed)
    assert_distance_matches_oracles(g)


def test_parabola_chain_crossings_are_at_distance_three():
    g = GeometricGraph.build(*parabola_chain(5))
    assert len(crossings_of(g)) == 5
    assert min_pairwise_crossing_distance(g) == 3
    assert_distance_matches_oracles(g)


def test_crossings_memo_does_not_keep_graph_alive():
    g = x_gadget(shift=12345)
    assert len(crossings_of(g)) == 1
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_crossing_distance_rejects_foreign_crossing():
    g = convex_clique(4)
    (c,) = sorted(crossings_of(g))
    with pytest.raises(ValueError):
        crossing_distance(g, c, Crossing.make((0, 1), (2, 3)))


def test_crossing_distance_accepts_plain_edge_pairs():
    (c,) = crossings_of(convex_clique(4))
    assert crossing_distance(convex_clique(4), tuple(c), tuple(c)) == 0
    left = figure_graphs("figure3_left")
    c1, c2 = (tuple(c) for c in sorted(crossings_of(left)))
    assert crossing_distance(left, c1, c2) == crossing_distance(left, c2, c1) == 2


def test_crossing_distance_accepts_either_edge_order_and_direction():
    g = figure_graphs("figure3_left")
    a, b = sorted(crossings_of(g))
    assert crossing_distance(g, (a.e2, a.e1), b) == 2
    assert crossing_distance(g, (a.e1[::-1], a.e2), b) == 2
    assert crossing_distance(g, a, (b.e2, b.e1[::-1])) == 2
    with pytest.raises(ValueError, match="both crossings must belong to the graph"):
        crossing_distance(g, (a.e1, b.e1), b)


@pytest.mark.parametrize("g", [figure_graphs("figure6"), random_geometric_graph(12, 0.3, seed=2),
                               random_geometric_graph(30, 0.1, 2, seed=0)], ids=["figure6", "near", "far"])
def test_a_drawing_and_its_structure_measure_the_same_crossing_distances(g):
    # Distance is measured in the abstract graph, so a structure has the distances of its drawing.
    s = crossing_structure(g)
    pairs = list(itertools.combinations(g.sorted_crossings, 2))
    distances = [crossing_distance(g, c1, c2) for c1, c2 in pairs]
    assert distances and [crossing_distance(s, c1, c2) for c1, c2 in pairs] == distances
    assert min_pairwise_crossing_distance(s) == min_pairwise_crossing_distance(g) == min(distances)


# --- crossing structures ----------------------------------------------------


def test_canonical_form_invariant_under_rotation():
    g = convex_clique(5)
    rotated = GeometricGraph.build(
        [g.points[(i + 2) % 5] for i in range(5)], itertools.combinations(range(5), 2)
    )
    assert crossing_structure(g) == crossing_structure(rotated)
    assert crossing_structure(g).canonical_form == crossing_structure(rotated).canonical_form


def test_canonical_form_separates_convex_and_nonconvex_k4():
    convex = convex_clique(4)
    nonconvex = GeometricGraph.build(
        [(0, 0), (30, 0), (15, 30), (14, 11)], itertools.combinations(range(4), 2)
    )
    assert len(crossings_of(nonconvex)) == 0
    assert crossing_structure(convex) != crossing_structure(nonconvex)


def test_canonical_form_separates_figure1_realizations():
    left = crossing_structure(figure_graphs("figure1_left"))
    right = crossing_structure(figure_graphs("figure1_right"))
    assert left.canonical_form != right.canonical_form
    assert len(left.crossings) == 10
    assert len(right.crossings) == 15


def test_canonical_form_equality_matches_isomorphism_search(store):
    # all pairs of cataloged K5 structures, checked by explicit permutation search
    entries = store.get(5).entries
    structs = [e.structure for e in entries]

    def isomorphic(s1, s2):
        for perm in itertools.permutations(range(5)):
            mapped = set()
            for (u, v), (x, y) in s1.crossings:
                f1 = tuple(sorted((perm[u], perm[v])))
                f2 = tuple(sorted((perm[x], perm[y])))
                mapped.add(tuple(sorted((f1, f2))))
            if mapped == set(s2.crossings):
                return True
        return False

    for s1, s2 in itertools.combinations_with_replacement(structs, 2):
        assert (s1.canonical_form == s2.canonical_form) == isomorphic(s1, s2)


def test_canonical_form_invariant_under_random_relabeling():
    import random

    from geochrom import random_geometric_graph

    rng = random.Random(99)
    for seed in range(6):
        g = random_geometric_graph(6, 0.4, seed=40 + seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        inv = {perm[i]: i for i in range(g.n)}
        pts = [g.points[inv[i]] for i in range(g.n)]
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
        relabeled = GeometricGraph.build(pts, edges)
        assert crossing_structure(g) == crossing_structure(relabeled)


def _relabeled(s, perm):
    return CrossingStructure(
        s.n,
        [(perm[u], perm[v]) for u, v in s.adjacency],
        [((perm[a], perm[b]), (perm[c], perm[d])) for (a, b), (c, d) in s.crossings],
    )


def _relabelings(s, rng, copies):
    for _ in range(copies):
        perm = list(range(s.n))
        rng.shuffle(perm)
        yield _relabeled(s, perm)


def _assert_same_equality_as_reference(structures, rng, copies=2):
    """Two forms agree exactly when their reference forms do, over the structures and relabelled copies.

    A copy is isomorphic to its original, so its reference form is the original's.
    """
    forms, reference = [], []
    for s in structures:
        ref = reference_canonical_form(s.n, s.adjacency, s.crossings)
        for copy in (s, *_relabelings(s, rng, copies)):
            forms.append(copy.canonical_form)
            reference.append(ref)
    for i, j in itertools.combinations(range(len(forms)), 2):
        assert (forms[i] == forms[j]) == (reference[i] == reference[j]), (i, j)


def _random_structure(rng, n):
    # Any crossing set on disjoint edge pairs, realizable or not.
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    disjoint = [(e, f) for e, f in itertools.combinations(edges, 2) if not set(e) & set(f)]
    return CrossingStructure(n, edges, [pair for pair in disjoint if rng.random() < 0.3])


def _cycles(*lengths, crossed=False):
    """Disjoint cycles on consecutive ids; with `crossed`, each edge crosses the opposite one."""
    edges, crossings, start = [], [], 0
    for k in lengths:
        ring = [(start + i, start + (i + 1) % k) for i in range(k)]
        edges += ring
        if crossed:
            crossings += [(ring[i], ring[i + k // 2]) for i in range(k // 2)]
        start += k
    return CrossingStructure(start, edges, crossings)


def _matching(m):
    """m disjoint edges, no crossing: every vertex looks alike to refinement."""
    return CrossingStructure(2 * m, [(2 * i, 2 * i + 1) for i in range(m)], [])


def _star(k):
    """K_1,k with no crossing, centre 0: the search chooses its leaves one level each."""
    return CrossingStructure(k + 1, [(0, i) for i in range(1, k + 1)], [])


def _disjoint_union(parts):
    """The structures side by side, on consecutive ids."""
    edges, crossings, start = [], [], 0
    for s in parts:
        edges += [(u + start, v + start) for u, v in s.adjacency]
        crossings += [((a + start, b + start), (c + start, d + start)) for (a, b), (c, d) in s.crossings]
        start += s.n
    return CrossingStructure(start, edges, crossings)


def test_canonical_form_matches_reference_on_catalog_structures(store):
    rng = random.Random(5)
    for n in (5, 6):
        _assert_same_equality_as_reference([e.structure for e in store.get(n).entries], rng)


def test_canonical_form_matches_reference_on_random_structures():
    rng = random.Random(11)
    structures = [_random_structure(rng, 3 + i % 6) for i in range(60)]
    structures += [crossing_structure(random_geometric_graph(6 + i % 3, 0.5, seed=i)) for i in range(20)]
    _assert_same_equality_as_reference(structures, rng)


def test_canonical_form_matches_reference_on_symmetric_structures():
    # Every vertex of each of these looks alike to refinement, so the search
    # must individualize, and the automorphism pruning decides what it skips.
    # C8 against C4 + C4 and C3 + C5 is the classic case refinement alone merges.
    structures = [_cycles(8), _cycles(4, 4), _cycles(3, 5), _cycles(8, crossed=True), _cycles(4, 4, crossed=True),
                  CrossingStructure(8, [], []),
                  CrossingStructure(8, [(u, v) for u in range(4) for v in range(4, 8)], []),
                  CrossingStructure(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b], [])]
    structures += [crossing_structure(convex_clique(n)) for n in range(4, 8)]
    structures += [crossing_structure(star_crossing(k)[0]) for k in range(2, 6)]
    k4 = crossing_structure(convex_clique(4))
    structures.append(CrossingStructure(8, [*k4.adjacency, *((u + 4, v + 4) for u, v in k4.adjacency)],
                                        [*k4.crossings, ((4, 6), (5, 7))]))
    _assert_same_equality_as_reference(structures, random.Random(12))


def _named_drawing(name):
    """"convex K<n>" or "star_crossing(<k>)"."""
    if name.startswith("star"):
        return star_crossing(int(name[len("star_crossing("):-1]))[0]
    return convex_clique(int(name[len("convex K"):]))


@pytest.mark.parametrize("name", ["convex K11", "convex K12", "convex K14", "star_crossing(11)", "star_crossing(13)"])
def test_canonical_form_is_invariant_on_large_symmetric_inputs(name):
    # The exhaustive search these replaced gave up on each with RuntimeError.
    s = crossing_structure(_named_drawing(name))
    for copy in _relabelings(s, random.Random(13), copies=3):
        assert copy.canonical_form == s.canonical_form


def _reference_ir_inputs(group, store):
    if group == "convex K4-K14":
        return [crossing_structure(convex_clique(n)) for n in range(4, 15)]
    if group == "star_crossing(1..13)":
        return [crossing_structure(star_crossing(k)[0]) for k in range(1, 14)]
    if group == "separation_family(1..5)":
        return [crossing_structure(separation_family(n)) for n in range(1, 6)]
    if group == "figures":
        return [crossing_structure(figure_graphs(tag)) for tag in FIGURE_TAGS]
    if group == "K3-K6 catalogs":
        return [e.structure for n in range(3, 7) for e in store.get(n).entries]
    if group == "one edge plus 0..12 isolated vertices":
        return [CrossingStructure(k + 2, [(k // 2, k + 1)], []) for k in range(13)]
    if group == "matchings m = 2..20, unions of 2-3 K4-K6 witnesses":
        rng = random.Random(31)
        witnesses = [e.structure for n in (4, 5, 6) for e in store.get(n).entries]
        unions = (_disjoint_union([rng.choice(witnesses) for _ in range(rng.choice((2, 3)))]) for _ in range(20))
        return [_matching(m) for m in range(2, 21)] + [next(_relabelings(u, rng, copies=1)) for u in unions]
    if group == "paths P_2..P_40, stars K_1,2..12":
        return [CrossingStructure(k, [(i, i + 1) for i in range(k - 1)], []) for k in range(2, 41)] + [
            _star(k) for k in range(2, 13)]
    if group == "twins: K_2,k, K_3,k, double stars, relabelled star_crossing(2..9) and unions, near twins":
        return _twin_rich_inputs()
    if group == "sparse drawings with isolated vertices":
        drawings = (random_geometric_graph(6 + i % 9, 0.1 + 0.05 * (i % 4), seed=900 + i) for i in range(200))
        return [s for s in map(crossing_structure, drawings) if len(set().union(*s.adjacency)) < s.n]
    return [crossing_structure(random_geometric_graph(5 + i % 10, 0.2 + 0.1 * (i % 5), seed=700 + i))
            for i in range(300)]


def _twin_rich_inputs():
    """Structures whose branching classes hold twins: equal neighbours, and equal crossing partners or not."""
    rng = random.Random(48)
    bipartite = [CrossingStructure(a + k, [(u, a + v) for u in range(a) for v in range(k)], [])
                 for a in (2, 3) for k in range(1, 7)]
    # Two centres, joined or not, with a and b pendant leaves.
    double_stars = [CrossingStructure(2 + a + b, [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
                                      + [(0, 1)] * joined, [])
                    for a, b in ((1, 1), (2, 2), (2, 3), (3, 5), (4, 4)) for joined in (0, 1)]
    stars = [crossing_structure(star_crossing(k)[0]) for k in range(2, 10)]
    unions = [_disjoint_union(rng.sample(stars, 2)) for _ in range(6)]
    relabelled = [next(_relabelings(s, rng, copies=1)) for s in stars + unions]
    near_twins = [
        # Leaves 1 and 2 share their partner list; leaf 3 shares their centre but crosses nothing.
        CrossingStructure(6, [(0, 1), (0, 2), (0, 3), (4, 5)], [((0, 1), (4, 5)), ((0, 2), (4, 5))]),
        # 2, 3 and 4 share neighbours and crossing degree but no partner list: joined on neighbours alone, their
        # orbit would skip the branch that holds the least leaf.
        CrossingStructure(6, [(0, 2), (0, 3), (0, 4), (0, 5), (2, 5), (3, 5), (4, 5)],
                          [((0, 2), (3, 5)), ((0, 4), (2, 5)), ((0, 4), (3, 5))]),
    ]
    return bipartite + double_stars + relabelled + near_twins


_IR_GROUPS = ["convex K4-K14", "star_crossing(1..13)", "separation_family(1..5)", "figures", "K3-K6 catalogs",
              "300 random drawings", "one edge plus 0..12 isolated vertices", "sparse drawings with isolated vertices",
              "matchings m = 2..20, unions of 2-3 K4-K6 witnesses", "paths P_2..P_40, stars K_1,2..12",
              "twins: K_2,k, K_3,k, double stars, relabelled star_crossing(2..9) and unions, near twins"]


@pytest.mark.parametrize("group", _IR_GROUPS)
def test_canonical_form_equals_the_former_search_byte_for_byte(group, store):
    # Jump-back and incremental stabilizer filtering skip only subtrees whose
    # leaves were already seen, and int signatures rank like the tuples, so
    # the least leaf, the form itself, must not move.
    for s in _reference_ir_inputs(group, store):
        assert s.canonical_form == reference_ir_canonical_form(s.n, s.adjacency, s.crossings), s


@pytest.mark.parametrize("name, most", [("star_crossing(11)", 13), ("convex K12", 7), ("matching(50)", 2600),
                                        ("star K1,40", 40), ("star K1,400", 400)])
def test_symmetric_inputs_refine_few_times(name, most, monkeypatch):
    # Counts repeat exactly on every host. Without the jump back to the common
    # ancestor, star_crossing(11) refines 288 times, and 78 without the twins
    # cut. The matching's 2600 is the count of the search that walked each
    # orbit afresh at every sibling. The star K_1,k branches k - 1 levels deep
    # and refines k times: its leaves are twins, so each level tries one of
    # them. Tried one by one, they took k(k + 1)/2 refinements.
    calls = []
    refine = graphs._refine_partition
    monkeypatch.setattr(graphs, "_refine_partition", lambda *args: calls.append(1) or refine(*args))
    if name.startswith("matching"):
        # The reference search takes minutes here. Each leaf puts every edge on two consecutive ids.
        s = _matching(50)
        assert s.canonical_form == _form_bytes(s.n, [2 * i * s.n + 2 * i + 1 for i in range(50)], [])
    elif name.startswith("star K"):
        # So does this one. Each leaf puts the centre last.
        k = int(name[len("star K1,"):])
        s = _star(k)
        assert s.canonical_form == _form_bytes(k + 1, [i * (k + 1) + k for i in range(k)], [])
    else:
        s = crossing_structure(_named_drawing(name))
        assert s.canonical_form == reference_ir_canonical_form(s.n, s.adjacency, s.crossings)
    assert len(calls) <= most


class _Reads(list):
    """Lists that log the index of each entry asked for; iterating over them asks for every entry."""

    def __init__(self, lists, log: list):
        super().__init__(lists)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.log.extend(range(len(self)))
        return super().__iter__()


def _passes(reads: list) -> int:
    """Signature passes behind one refinement's log of partner-list reads.

    A pass reads the lists of its unsettled vertices in increasing order. The
    next pass starts below where it ended: its unsettled vertices are some of
    the former's, at least two of them.
    """
    return sum(1 for i, v in enumerate(reads) if i == 0 or v <= reads[i - 1])


def test_a_discrete_colouring_comes_back_as_its_ranks_in_one_pass_reading_no_list():
    # The search hands over classes such as 2c and 2c + 1, and a leaf reads its classes as a permutation.
    # Every signature of a discrete colouring is [class], so its one pass reads neither list: both are None.
    assert graphs._refine_partition([5, 0, 3], None, None) == [2, 0, 1]
    assert graphs._refine_partition([], None, None) == []
    # The pass that separates the last vertices is the last one.
    reads = []
    path = [{1}, {0, 2}, {1}]
    assert graphs._refine_partition([0, 0, 1], path, _Reads([[], [], []], reads)) == [0, 1, 2]
    assert _passes(reads) == 1


def test_random_drawings_refine_in_a_fixed_number_of_passes(monkeypatch):
    # Counts repeat exactly on every host. Confirming each discrete colouring
    # with one more pass, the same forms took 983 passes; stopping at a
    # discrete colouring, 598, when each search began with a pass from the
    # uniform colouring; 316 when each twin was branched on, before the
    # twins cut skipped their subtrees.
    structures = _reference_ir_inputs("300 random drawings", None)
    passes = 0
    refine = graphs._refine_partition

    def counting(classes, adj, partners):
        nonlocal passes
        reads = []
        result = refine(classes, adj, _Reads(partners, reads))
        passes += _passes(reads)
        return result

    monkeypatch.setattr(graphs, "_refine_partition", counting)
    for s in structures:
        assert s.canonical_form
    assert passes == 310


@pytest.mark.parametrize("group", _IR_GROUPS)
def test_the_search_starts_where_one_pass_from_the_uniform_colouring_ends(group, store, monkeypatch):
    # Every neighbour and crossing partner of a vertex with an edge has an
    # edge too, so that pass ranks those vertices by degree and crossing
    # degree alone, and the search starts from its result without making it.
    firsts = []
    refine = graphs._refine_partition
    monkeypatch.setattr(graphs, "_refine_partition", lambda *args: firsts.append(args[0]) or refine(*args))
    for s in _reference_ir_inputs(group, store):
        firsts.clear()
        graphs._canonical_bytes(s)
        assert firsts[0] == reference_search_start(s.n, s.adjacency, s.crossings), s


@pytest.mark.parametrize("group", _IR_GROUPS)
def test_every_class_refinement_is_handed_holds_one_degree_and_one_crossing_degree(group, store, monkeypatch):
    # The signature leaves both counts out: the search starts from the ranking by degree and crossing degree,
    # and each later colouring only splits classes, so the counts could never split a class.
    calls = 0
    refine = graphs._refine_partition

    def checking(classes, adj, partners):
        nonlocal calls
        kinds = {}
        for v, c in enumerate(classes):
            kinds.setdefault(c, set()).add((degree[v], crossing_degree[v]))
        assert all(len(counts) == 1 for counts in kinds.values()), classes
        calls += 1
        return refine(classes, adj, partners)

    structures = _reference_ir_inputs(group, store)
    monkeypatch.setattr(graphs, "_refine_partition", checking)
    for s in structures:
        degree = [sum(v in e for e in s.adjacency) for v in range(s.n)]
        crossing_degree = [sum(v in e1 or v in e2 for e1, e2 in s.crossings) for v in range(s.n)]
        graphs._canonical_bytes(s)
    assert calls


def _unsettled_per_pass(classes, adj, partners) -> list:
    """The vertices that share a class, at the start of each pass _refine_partition makes."""
    incid = [[(p, (a, b)) for p, a, b in at] for at in partners]
    out = []
    while len(set(classes)) < len(classes):
        out += [v for v, c in enumerate(classes) if classes.count(c) > 1]
        refined = reference_signature_pass(len(classes), adj, incid, classes)
        if len(set(refined)) == len(set(classes)):
            break
        classes = refined
    return out


@pytest.mark.parametrize("group", _IR_GROUPS)
def test_a_pass_reads_no_list_of_a_vertex_alone_in_its_class(group, store, monkeypatch):
    # Its class, the first field of every signature, already fixes its rank.
    calls = 0
    refine = graphs._refine_partition

    def checking(classes, adj, partners):
        nonlocal calls
        adj_reads, partner_reads = [], []
        result = refine(classes, _Reads(adj, adj_reads), _Reads(partners, partner_reads))
        expected = sorted(_unsettled_per_pass(classes, adj, partners))
        assert sorted(adj_reads) == sorted(partner_reads) == expected
        calls += 1
        return result

    monkeypatch.setattr(graphs, "_refine_partition", checking)
    for s in _reference_ir_inputs(group, store):
        graphs._canonical_bytes(s)
    assert calls


def test_isolated_vertices_are_never_branched_on(monkeypatch):
    # Every order of the isolated vertices gives the same leaf. Searched one
    # at a time, the 298 here took tens of thousands of refinements, and the
    # 1000 of the edgeless structure recursed too deep.
    calls = []
    refine = graphs._refine_partition
    monkeypatch.setattr(graphs, "_refine_partition", lambda *args: calls.append(1) or refine(*args))
    one_edge = CrossingStructure(300, [(0, 299)], [])
    assert one_edge.canonical_form == bytes.fromhex("012c" "00000001" "00015e63" "00000000")  # edge 298-299
    assert len(calls) <= 5
    edgeless = CrossingStructure(1000, [], [])
    assert edgeless.canonical_form == bytes.fromhex("03e8" "00000000" "00000000")
    for s in (one_edge, edgeless):
        for copy in _relabelings(s, random.Random(19), copies=2):
            assert copy.canonical_form == s.canonical_form


def test_a_deep_branch_stays_clear_of_the_recursion_limit():
    # The star K_1,100 branches 99 levels deep. A search that called itself per level needed about 103 frames.
    expected = _star(100).canonical_form
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        form = _star(100).canonical_form
    finally:
        sys.setrecursionlimit(limit)
    assert form == expected


def test_canonical_form_of_structures_beyond_256_vertices():
    # A vertex id no longer fits one byte, so every field after n is twice as
    # wide: 4-byte counts and edge codes, 8-byte crossing codes.
    path = CrossingStructure(300, [(i, i + 1) for i in range(299)], [])
    crossed = CrossingStructure(300, path.adjacency, [((0, 1), (2, 3))])
    assert path.canonical_form[:2] == (300).to_bytes(2, "big")
    assert len(path.canonical_form) == 2 + 4 + 299 * 4 + 4
    assert len(crossed.canonical_form) == len(path.canonical_form) + 8
    for s in (path, crossed):
        for copy in _relabelings(s, random.Random(17), copies=2):
            assert copy.canonical_form == s.canonical_form
    assert path != crossed


def test_form_fields_widen_with_n():
    # One byte per vertex id up to n = 256, two up to 65 536, three beyond;
    # n itself is escaped once it no longer fits two bytes.
    assert _form_bytes(256, (1,), (2,)) == bytes.fromhex("0100" "0001" "0001" "0001" "00000002")
    assert _form_bytes(257, (1,), ()) == bytes.fromhex("0101" "00000001" "00000001" "00000000")
    assert _form_bytes(65534, (), ()) == bytes.fromhex("fffe" "00000000" "00000000")
    assert _form_bytes(65535, (), ()) == bytes.fromhex("ffff" "000000000000ffff" "00000000" "00000000")
    assert _form_bytes(65537, (3,), (4,)) == bytes.fromhex(
        "ffff" "0000000000010001" "000000000001" "000000000003" "000000000001" "000000000000000000000004")
    # A crossing count that does not fit its 2w bytes is escaped like n; one
    # that fits keeps its bytes, all-ones included.
    plain = _form_bytes(4, (), (1,) * 0xFFFF)
    assert plain[:14] == bytes.fromhex("0004" "0000" "ffff" "00000001" "00000001") and len(plain) == 6 + 4 * 0xFFFF
    assert _form_bytes(4, (), (0,) * 0x10000)[:14] == bytes.fromhex("0004" "0000" "ffff" "0000000000010000")
    assert _form_bytes(257, (), (0,) * 0x10000)[:10] == bytes.fromhex("0101" "00000000" "00010000")


def _codes(rng: random.Random, count: int, bound: int) -> tuple:
    """`count` codes below `bound`, about half of them sharing one low byte, so they differ only above it."""
    low = rng.randrange(min(bound, 256))
    return tuple(rng.randrange((bound - 1 - low) // 256 + 1) << 8 | low if rng.random() < 0.5 else rng.randrange(bound)
                 for _ in range(count))


def _above_the_low_byte(codes: tuple, i: int, bound: int) -> tuple | None:
    """`codes` with code i moved by 256 within 0..bound-1: the same low byte, another byte above it."""
    c = codes[i] - 256 if codes[i] >= 256 else codes[i] + 256
    return codes[:i] + (c,) + codes[i + 1:] if c < bound else None


@pytest.mark.parametrize("n", [12, 300])
def test_forms_of_equal_counts_order_like_their_code_tuples(n):
    # The leaves of one structure share n and both counts, and the search keeps the least leaf by its bytes,
    # so the bytes must order like the leaves' (edge codes, crossing codes) tuples.
    rng = random.Random(n)
    edge_codes = [_codes(rng, 5, n * n) for _ in range(3)]  # few, so that most comparisons reach the crossings
    pairs = [(rng.choice(edge_codes), _codes(rng, 4, n ** 4)) for _ in range(60)]
    for es, cs in pairs[:20]:
        moved = [(es, _above_the_low_byte(cs, rng.randrange(4), n ** 4)),
                 (_above_the_low_byte(es, rng.randrange(5), n * n), cs)]
        pairs += [(a, b) for a, b in moved if a is not None and b is not None]
    assert len(pairs) == (80 if n == 12 else 100)  # only a 1-byte vertex id leaves no edge code above 255
    for a, b in itertools.combinations(pairs, 2):
        assert (_form_bytes(n, *a) < _form_bytes(n, *b)) == (a < b), (a, b)
        assert (_form_bytes(n, *a) == _form_bytes(n, *b)) == (a == b), (a, b)


def test_canonical_form_of_a_structure_with_more_crossings_than_two_bytes_count():
    # The convex K_37 has C(37, 4) = 66 045 crossings on 37 vertices.
    n = 37
    edges = list(itertools.combinations(range(n), 2))
    crossings = [(e, f) for e, f in itertools.combinations(edges, 2)
                 if not set(e) & set(f) and convex_crossing_rule(n, [v + 1 for v in e], [v + 1 for v in f])]
    s = CrossingStructure(n, edges, crossings)
    count_at = 2 + 2 + 2 * len(edges)
    assert s.canonical_form[count_at:count_at + 10] == b"\xff\xff" + (66_045).to_bytes(8, "big")
    assert len(s.canonical_form) == count_at + 10 + 4 * 66_045
    copy, = _relabelings(s, random.Random(23), copies=1)
    assert copy.canonical_form == s.canonical_form


def test_structure_validation():
    with pytest.raises(ValueError):
        # crossing uses a non-edge
        CrossingStructure(4, [(0, 1)], [((0, 1), (2, 3))])
    with pytest.raises(ValueError, match=r"edge \(1,1\) must join two distinct ids of 0\.\.2"):
        CrossingStructure(3, [(1, 1)], [])


def test_an_adopted_structure_still_checks_every_crossing():
    # A drawing's structure skips only the normalizing: its crossings pass the constructor's two checks.
    edges = frozenset({(0, 1), (0, 2), (1, 3)})
    uses_a_non_edge = [Crossing((0, 1), (2, 3))]
    shares_a_vertex = [Crossing((0, 2), (1, 3)), Crossing((0, 1), (1, 3))]
    for crossings, named in ((uses_a_non_edge, "non-edge"), (shares_a_vertex, "not a disjoint pair")):
        for build in (CrossingStructure, CrossingStructure._adopt):
            with pytest.raises(ValueError, match=named):
                build(4, edges, crossings)


def test_drawing_stores_edges_as_sorted_pairs():
    assert GeometricGraph((Point(0, 0), Point(10, 1)), {(1, 0)}).edges == frozenset({(0, 1)})


def test_structure_n_must_be_a_non_negative_int():
    for n in (-2, True, 2.0):
        with pytest.raises(ValueError, match="non-negative int"):
            CrossingStructure(n, [], [])
    assert CrossingStructure(0, [], []).hex == "000000000000"  # the least n still gets a form


def test_structure_is_immutable():
    s = crossing_structure(convex_clique(5))
    form = s.canonical_form
    for name, value in (("n", 6), ("adjacency", frozenset()), ("crossings", frozenset()), ("_canonical", b"")):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    assert s.n == 5 and len(s.crossings) == 5 and s.canonical_form == form


def _drawings():
    yield from (figure_graphs(tag) for tag in FIGURE_TAGS)
    yield from (random_geometric_graph(9, 0.4, seed=seed) for seed in range(20))


def test_drawings_and_structures_hold_one_crossing_type():
    for g in _drawings():
        structure = crossing_structure(g)
        assert crossings_of(g) == structure.crossings
        assert all(type(c) is Crossing for c in structure.crossings)
    c = Crossing.make((2, 4), (1, 5))
    assert c == ((1, 5), (2, 4)) and hash(c) == hash(((1, 5), (2, 4)))
    assert repr(c) == "Crossing(e1=(1, 5), e2=(2, 4))"
    assert sorted([Crossing.make((0, 2), (1, 3)), c]) == [Crossing((0, 2), (1, 3)), c]


def test_a_structure_keeps_the_source_views_of_its_drawing(calls_of):
    drawings = list(_drawings())
    expected = [(g.structure.neighbour_rows, [sorted(at) for at in g.structure.crossing_partners]) for g in drawings]
    rows, partners = calls_of(graphs._adj_rows), calls_of(graphs._crossing_partners)
    structures = [crossing_structure(g) for g in drawings]
    for s, (g_rows, g_partners) in zip(structures, expected):
        assert s.neighbour_rows is s.neighbour_rows and s.crossing_partners is s.crossing_partners
        # Triples at a vertex follow the iteration order of a frozenset, which two equal sets need not share.
        assert (s.neighbour_rows, [sorted(at) for at in s.crossing_partners]) == (g_rows, g_partners)
    # each view built once per structure, on its first read
    assert [args[0] for args in rows] == [args[0] for args in partners] == [s.n for s in structures]


def _adopting_drawings():
    """The figures, seeded drawings, the drawings on 0 and 1 points, and sparse ones with isolated vertices."""
    yield from _drawings()
    yield GeometricGraph((), [])
    yield GeometricGraph((Point(3, 4),), [])
    yield GeometricGraph.build([(0, 0), (10, 10), (0, 10), (10, 0), (5, 30), (30, 7)], [(0, 1), (2, 3)])
    yield from (random_geometric_graph(12, 0.08, seed=seed) for seed in range(20))


def test_a_drawing_s_structure_adopts_its_edges_and_crossings():
    # The drawing checked its edges with _edge_set and its straddle pass emits normal Crossings, so its
    # structure keeps those very objects and equals the one the public constructor builds from them.
    isolated = 0
    for g in _adopting_drawings():
        s = g.structure
        assert s.adjacency is g.edges
        kept = {id(c) for c in g.sorted_crossings}
        assert all(id(c) in kept for c in s.crossings) and len(s.crossings) == len(g.sorted_crossings)
        built = CrossingStructure(g.n, g.edges, g.sorted_crossings)
        assert (s.n, s.adjacency, s.crossings, s.canonical_form) == (built.n, built.adjacency, built.crossings,
                                                                     built.canonical_form)
        isolated += g.n > len({v for e in g.edges for v in e})
    assert isolated > 10


def test_structure_from_plain_pairs_holds_crossings():
    edges = list(itertools.combinations(range(5), 2))
    plain = CrossingStructure(5, edges, [((3, 2), (1, 0)), ((1, 4), (0, 2))])
    typed = CrossingStructure(5, edges, [Crossing.make((0, 1), (2, 3)), Crossing.make((0, 2), (1, 4))])
    assert plain == typed
    assert plain.crossings == typed.crossings == {((0, 1), (2, 3)), ((0, 2), (1, 4))}
    assert all(type(c) is Crossing for c in plain.crossings)


def test_hom_search_reads_drawing_and_structure_targets_alike(store):
    targets = [e.witness for e in (*store.get(4).entries, *store.get(5).entries, *store.get(6).maximal)]
    found = 0
    for g in _drawings():
        for h in targets:
            f = find_geometric_hom(g, h)
            assert f == find_geometric_hom(g, crossing_structure(h))
            found += f is not None
    assert found > 0


# --- JSON round trip --------------------------------------------------------


def test_graph_json_round_trip_is_byte_identical():
    g = figure_graphs("figure1_left")
    text = json.dumps(graph_to_json_dict(g), separators=(",", ":"))
    again = graph_from_json_dict(json.loads(text))
    assert again == g
    assert json.dumps(graph_to_json_dict(again), separators=(",", ":")) == text


def test_graph_json_rejects_bad_documents(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("not json")
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        _read_json(path)
    with pytest.raises(GraphFormatError):
        graph_from_json_dict({"vertices": [], "edges": [[0, 1]]})
    with pytest.raises(GraphFormatError):
        graph_from_json_dict({"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 1}], "edges": []})
    with pytest.raises(GraphFormatError):
        graph_from_json_dict({"vertices": [{"id": 0, "x": 0.5, "y": 0}], "edges": []})
    # true would pass the 0..n-1 check as id 1, and "0" would fail it with a message that hides the cause.
    for vid in ("0", True, 0.0, None):
        doc = {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": vid, "x": 10, "y": 1}], "edges": [[0, 1]]}
        with pytest.raises(GraphFormatError, match="must have an integer id"):
            graph_from_json_dict(doc)
