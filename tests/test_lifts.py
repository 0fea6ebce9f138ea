
from itertools import product

import pytest

from geochrom import (
    ChiOutOfRange,
    CollapsedCrossingPair,
    Coloring,
    Crossing,
    CrossingsNotIndependent,
    DistanceTooSmall,
    GeochromError,
    GeometricGraph,
    LiftInternalError,
    NotProperColoring,
    chromatic_number,
    convex_clique,
    crossings_of,
    figure_graphs,
    find_noncollapsing_hom,
    is_geometric_hom,
    is_proper,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
    random_geometric_graph,
)
from geochrom import graphs, lifts
from geochrom.lifts import _dispatch
from oracles import brute_force_chromatic, brute_force_noncollapsing_exists, parabola_chain, reference_dispatch


def x_gadget():
    """One crossing: edge (0,1) x edge (2,3)."""
    return GeometricGraph.build([(0, 0), (10, 10), (0, 10), (10, 0)], [(0, 1), (2, 3)])


def assert_report_ok(g, report):
    assert is_geometric_hom(g, convex_clique(report.target_size), report.beta)
    logged = [c for c, _ in report.case_log]
    assert sorted(logged) == sorted(crossings_of(g))


# --- case dispatch, one crossing at a time -----------------------------------


def _outcome(dispatch, method, room, lab, cr):
    try:
        return dispatch(method, room, lab, cr)
    except GeochromError as exc:
        return type(exc), str(exc)


def test_dispatch_agrees_with_the_reference_on_every_label_pattern():
    # Two disjoint edges pair four vertices in three ways; each edge takes
    # two different labels. smallchi reads the odd recoded labels 1..2n-1.
    pairings = [Crossing.make((0, 1), (2, 3)), Crossing.make((0, 2), (1, 3)), Crossing.make((0, 3), (1, 2))]
    checked = 0
    for n in range(2, 9):
        for method in ("dist2", "indep2n", "indep3n", "smallchi"):
            labels, room = (range(1, 2 * n, 2), 2 * n - 1) if method == "smallchi" else (range(1, n + 1), n)
            for cr, lab in product(pairings, product(labels, repeat=4)):
                lab = list(lab)
                if lab[cr.e1[0]] == lab[cr.e1[1]] or lab[cr.e2[0]] == lab[cr.e2[1]]:
                    continue
                assert _outcome(_dispatch, method, room, lab, cr) == _outcome(reference_dispatch, method, room, lab, cr)
                checked += 1
    assert checked == 76608


def test_case3_identical_images_all_methods():
    g = x_gadget()
    alpha = Coloring((1, 2, 2, 1), 2)
    for lift, target in ((lift_dist2, 4), (lift_independent, 6), (lift_small_chi, 4)):
        rep = lift(g, alpha)
        assert rep.target_size == target
        assert [t for _, t in rep.case_log] == ["3"]
        assert_report_ok(g, rep)
    with pytest.raises(CollapsedCrossingPair, match="try find_noncollapsing_hom or lift_independent"):
        lift_independent_noncollapsing(g, alpha)


def test_case3_dist2_follows_proof_chain():
    # alpha(u)=alpha(y)=1 < alpha(v)=alpha(x)=2: beta(u)<beta(x)<beta(v)<beta(y)
    g = x_gadget()
    rep = lift_dist2(g, Coloring((1, 2, 2, 1), 2))
    labels = [i + 1 for i in rep.beta.images]
    u, v, x, y = 0, 1, 2, 3
    assert labels[u] < labels[x] < labels[v] < labels[y]
    assert labels[v] == 3 and labels[y] == 4  # the two spare labels


def test_case3_indep3n_follows_proof_chain():
    # beta(y) < beta(v) < beta(x) < beta(u) with x -> alpha+n, u -> alpha+2n
    g = x_gadget()
    rep = lift_independent(g, Coloring((1, 2, 2, 1), 2))
    labels = [i + 1 for i in rep.beta.images]
    u, v, x, y = 0, 1, 2, 3
    assert labels[y] < labels[v] < labels[x] < labels[u]
    assert labels == [5, 2, 4, 1]


def test_case3_smallchi_matches_k4_pattern():
    g = x_gadget()
    rep = lift_small_chi(g, Coloring((1, 2, 2, 1), 2))
    assert rep.target_size == 4
    imgs = rep.beta.images
    assert {imgs[0] + 1, imgs[1] + 1} == {1, 3}
    assert {imgs[2] + 1, imgs[3] + 1} == {2, 4}


@pytest.mark.parametrize(
    "alpha_colors,n,expected_tag",
    [
        ((1, 2, 2, 3), 3, "2a"),  # shared value in the middle
        ((2, 1, 1, 3), 3, "2b"),  # shared value below both leaves
        ((1, 3, 3, 2), 3, "2b"),  # shared value above both leaves
    ],
)
def test_case2_incident_images_all_methods(alpha_colors, n, expected_tag):
    g = x_gadget()
    alpha = Coloring(alpha_colors, n)
    for lift in (lift_dist2, lift_independent_noncollapsing, lift_independent, lift_small_chi):
        rep = lift(g, alpha)
        assert [t for _, t in rep.case_log] == [expected_tag], lift.__name__
        assert_report_ok(g, rep)


def test_case2a_smallchi_incident_images_cross_in_k6():
    # recoded 1,3,3,5: the images {1,3} and {3,5} become {1,4} and {3,5}
    g = x_gadget()
    rep = lift_small_chi(g, Coloring((1, 2, 2, 3), 3))
    labels = [i + 1 for i in rep.beta.images]
    assert sorted((labels[0], labels[1])) == [1, 4]
    assert sorted((labels[2], labels[3])) == [3, 5]


@pytest.mark.parametrize(
    "alpha_colors,n,expected_tag",
    [
        ((1, 2, 3, 4), 4, "1a"),  # separated disjoint images
        ((2, 3, 1, 4), 4, "1b"),  # nested disjoint images
        ((1, 3, 2, 4), 4, "1"),   # images already cross: no modification
    ],
)
def test_case1_disjoint_images(alpha_colors, n, expected_tag):
    g = x_gadget()
    alpha = Coloring(alpha_colors, n)
    for lift in (lift_dist2, lift_independent_noncollapsing, lift_independent):
        rep = lift(g, alpha)
        assert [t for _, t in rep.case_log] == [expected_tag], lift.__name__
        assert_report_ok(g, rep)
        if expected_tag == "1":
            assert list(rep.beta.images) == [c - 1 for c in alpha_colors]


def test_case1a_indep2n_follows_proof_chain():
    # alpha(u)<alpha(v)<alpha(x)<alpha(y) = 1,2,3,4: beta(u)<beta(y)<beta(v)<beta(x)
    g = x_gadget()
    rep = lift_independent_noncollapsing(g, Coloring((1, 2, 3, 4), 4))
    labels = [i + 1 for i in rep.beta.images]
    u, v, x, y = 0, 1, 2, 3
    assert labels == [1, 2 + 4, 3 + 4, 4]
    assert labels[u] < labels[y] < labels[v] < labels[x]


def test_no_crossing_degenerate_lifts():
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5)], [(0, 1), (1, 2)])
    chi, alpha = chromatic_number(plane)
    for lift, expected_target in (
        (lift_dist2, chi + 2),
        (lift_independent_noncollapsing, 2 * chi),
        (lift_independent, 3 * chi),
    ):
        rep = lift(plane, alpha)
        assert rep.case_log == ()
        assert rep.target_size == expected_target
        assert list(rep.beta.images) == [c - 1 for c in alpha.colors]
    rep = lift_small_chi(plane, alpha)
    assert rep.case_log == ()
    assert [i + 1 for i in rep.beta.images] == [2 * c - 1 for c in alpha.colors]


def test_figure3_left_dist2_lift():
    g = figure_graphs("figure3_left")
    chi, alpha = chromatic_number(g)
    assert chi == 2
    rep = lift_dist2(g, alpha)
    assert rep.target_size == 4
    assert_report_ok(g, rep)
    # only crossing vertices move, and only onto the spare labels
    crossing_vertices = set().union(*(c.vertices for c in crossings_of(g)))
    for v in range(g.n):
        if rep.beta.images[v] + 1 != alpha.colors[v]:
            assert v in crossing_vertices
            assert rep.beta.images[v] + 1 in (chi + 1, chi + 2)


def test_figure3_right_smallchi_lift_validates():
    g = figure_graphs("figure3_right")
    chi, alpha = chromatic_number(g)
    rep = lift_small_chi(g, alpha)
    assert rep.target_size == 4
    assert is_geometric_hom(g, convex_clique(4), rep.beta)


def test_figure3_right_chi2_collapses():
    g = figure_graphs("figure3_right")
    _, alpha = chromatic_number(g)
    with pytest.raises(CollapsedCrossingPair):
        lift_independent_noncollapsing(g, alpha)


def test_figure3_right_indep3n_lift():
    g = figure_graphs("figure3_right")
    _, alpha = chromatic_number(g)
    rep = lift_independent(g, alpha)
    assert rep.target_size == 6
    assert_report_ok(g, rep)
    # image discipline: beta - alpha in {0, n, 2n}
    for v in range(g.n):
        assert rep.beta.images[v] + 1 - alpha.colors[v] in (0, 2, 4)


def test_find_noncollapsing_hom_figure3_right():
    g = figure_graphs("figure3_right")
    assert find_noncollapsing_hom(g, 2) is None
    witness = find_noncollapsing_hom(g, 3)
    assert witness is not None
    rep = lift_independent_noncollapsing(g, witness)
    assert rep.target_size == 6
    assert_report_ok(g, rep)


@pytest.mark.parametrize("seed", range(40))
def test_find_noncollapsing_hom_matches_exhaustive_oracle(seed):
    v = 4 + seed % 4
    g = random_geometric_graph(v, 0.3 + 0.1 * (seed % 5), seed=7000 + seed)
    crossings = [c.edges() for c in crossings_of(g)]
    chi = brute_force_chromatic(g.n, g.edges)
    for n in (chi, chi + 1):
        found = find_noncollapsing_hom(g, n)
        assert (found is not None) == brute_force_noncollapsing_exists(g.n, g.edges, crossings, n)
        if found is not None:
            assert found.n == n and is_proper(g, found)
            assert all({found.colors[a], found.colors[b]} != {found.colors[c], found.colors[d]}
                       for (a, b), (c, d) in crossings)


def test_find_noncollapsing_hom_refutes_two_colors_without_search(monkeypatch):
    # Every proper 2-coloring puts every edge on {1, 2}; a search would
    # backtrack exponentially in the 12 independent crossings.
    g = GeometricGraph.build(*parabola_chain(12))

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(lifts, "_noncollapsing", no_search)
    assert find_noncollapsing_hom(g, 2) is None
    assert find_noncollapsing_hom(g, 1) is None


def test_find_noncollapsing_hom_with_no_colors():
    # The empty coloring of K_0 is the witness the 2n lift turns into a map into K_0.
    assert find_noncollapsing_hom(convex_clique(0), 0) == Coloring((), 0)
    assert find_noncollapsing_hom(convex_clique(1), 0) is None
    assert find_noncollapsing_hom(convex_clique(0), -1) is None
    report = lift_independent_noncollapsing(convex_clique(0), Coloring((), 0))
    assert (report.target_size, report.beta.images) == (0, ())


def test_find_noncollapsing_hom_lets_a_crossing_share_one_color():
    # The target is K_k in which every two distinct edges cross, so a crossing's edges may share one color;
    # with only disjoint pairs crossing, three colors could not color this crossing's four ends.
    g = x_gadget()
    assert find_noncollapsing_hom(g, 2) is None
    witness = find_noncollapsing_hom(g, 3)
    assert witness is not None and is_proper(g, witness)
    ((a, b), (c, d)), = crossings_of(g)
    assert len({witness.colors[a], witness.colors[b]} & {witness.colors[c], witness.colors[d]}) == 1


def test_find_noncollapsing_hom_trivial_bipartite():
    plane = GeometricGraph.build([(0, 0), (10, 1), (20, 5)], [(0, 1), (1, 2)])
    witness = find_noncollapsing_hom(plane, 2)
    assert witness is not None and len(set(witness.colors)) == 2


def test_precondition_errors():
    g = figure_graphs("figure3_right")  # crossings at distance 1
    chi, alpha = chromatic_number(g)
    with pytest.raises(DistanceTooSmall):
        lift_dist2(g, alpha)

    star = GeometricGraph.build(
        [(0, 0), (10, 10), (0, 10), (10, 0), (3, 20), (3, -20)],
        [(0, 1), (2, 3), (4, 5)],
    )
    # (4,5) crosses both (0,1) and (2,3); all three crossings share vertices
    assert len(crossings_of(star)) >= 2
    chi_s, alpha_s = chromatic_number(star)
    with pytest.raises(CrossingsNotIndependent):
        lift_independent(star, alpha_s)

    improper = Coloring((1, 1, 2, 2), 2)
    with pytest.raises(NotProperColoring):
        lift_dist2(x_gadget(), improper)
    with pytest.raises(ValueError, match="coloring size does not match vertex count"):
        lift_dist2(x_gadget(), Coloring((1, 2, 1), 2))  # proper on the three vertices it names

    with pytest.raises(ChiOutOfRange):
        lift_small_chi(x_gadget(), Coloring((1, 2, 3, 4), 4))


@pytest.mark.parametrize("lift", [lift_dist2, lift_independent_noncollapsing, lift_independent, lift_small_chi])
def test_a_lift_whose_images_do_not_cross_fails_its_verification(monkeypatch, lift):
    # Both edges of the crossing carry labels {1, 2}: if no vertex moves, their images share ends.
    monkeypatch.setattr("geochrom.lifts._dispatch", lambda method, n, lab, cr: ("1", []))
    with pytest.raises(LiftInternalError, match="end-to-end verification"):
        lift(x_gadget(), Coloring((1, 2, 1, 2), 2))


def test_a_label_on_neither_end_of_the_edge_is_an_internal_error():
    # Raised, not asserted, so that python -O keeps the check.
    assert lifts._vertex_with([1, 2, 3], (0, 2), 3) == 2
    with pytest.raises(LiftInternalError, match="label 2 is on neither end of edge"):
        lifts._vertex_with([1, 2, 3], (0, 2), 2)


@pytest.mark.parametrize("seed", range(25))
def test_random_dist2_lifts_verify(seed):
    v = 4 + seed % 9
    g = random_geometric_graph(v, min(0.6, 2.8 / v), min_crossing_distance=2, seed=seed)
    chi, alpha = chromatic_number(g)
    rep = lift_dist2(g, alpha)
    assert rep.target_size == chi + 2
    assert_report_ok(g, rep)


@pytest.mark.parametrize("seed", range(25))
def test_random_indep3n_lifts_verify(seed):
    v = 4 + seed % 9
    g = random_geometric_graph(v, min(0.6, 3.0 / v), min_crossing_distance=1, seed=3000 + seed)
    chi, alpha = chromatic_number(g)
    rep = lift_independent(g, alpha)
    assert rep.target_size == 3 * chi
    assert_report_ok(g, rep)
    for v_id in range(g.n):
        assert rep.beta.images[v_id] + 1 - alpha.colors[v_id] in (0, chi, 2 * chi)


def test_plain_crossing_order_is_least_vertex_order():
    # _run_lift takes crossings by least vertex through plain sorted(): a crossing
    # leads with its lesser edge, an edge with its lesser end.
    several = 0
    for seed in range(200):
        g = random_geometric_graph(5 + seed % 10, 0.4, seed=5000 + seed)
        crossings = list(crossings_of(g))
        assert sorted(crossings) == sorted(crossings, key=lambda c: (min(c.vertices), c)), seed
        several += len(crossings) > 1
    assert several > 100


@pytest.mark.parametrize("drawing, independent", [(figure_graphs("figure3_right"), True),
                                                   (random_geometric_graph(10, 0.5, seed=2), False)],
                         ids=["independent", "shared_vertex"])
def test_the_four_lifts_share_one_crossing_gap_verdict(drawing, independent, calls_of):
    g = GeometricGraph(drawing.points, drawing.edges)  # no verdict of it is kept yet
    gaps = calls_of(graphs._crossing_gap)
    chi, alpha = chromatic_number(g)
    outcomes = []
    for lift, coloring in ((lift_dist2, alpha), (lift_independent, alpha), (lift_small_chi, alpha),
                           (lift_independent_noncollapsing, find_noncollapsing_hom(g, chi + 1) or alpha)):
        try:
            outcomes.append(lift(g, coloring).method)
        except GeochromError as exc:
            outcomes.append(type(exc).__name__)
    assert len(gaps) == 1
    assert ("indep3n" in outcomes) == independent
