"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 11 asserts that
the separation family reaches gap X - X' = n; the exact solvers show the
constructed drawings have gaps 0 and 1 for n = 1, 2 instead, so that single
criterion fails honestly rather than being weakened.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager


from geochrom import (
    CrossingStructure,
    Point,
    chromatic_number,
    convex_clique,
    convex_crossing_rule,
    crossing_structure,
    crossings_of,
    enumerate_clique_structures,
    figure_graphs,
    find_geometric_hom,
    find_noncollapsing_hom,
    geochromatic_lower_bound,
    geochromatic_number,
    is_geometric_hom,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
    pseudo_geochromatic_number,
    random_geometric_graph,
    regular_polygon_points,
    segments_cross,
    separation_family,
    star_crossing,
)
from conftest import CACHE_DIR
from oracles import grid_structures, orient, point_in_triangle_strict, rational_segments_cross


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.time()
    try:
        yield
        dt = time.time() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"runtime {dt:.1f}s exceeded the {budget}s budget")
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL - {desc}")
        raise
    print(f"\n[criterion {num:02d}] PASS - {desc} ({dt:.1f}s)")


def _random_instance(seed, min_dist):
    v = 4 + seed % 9
    p = min(0.6, (2.2 + 0.3 * (seed % 5)) / v)
    return random_geometric_graph(v, p, min_crossing_distance=min_dist, seed=seed)


def test_c01_convex_rule_equals_segment_predicate():
    with criterion(1, "convex crossing rule = segment predicate on n-gons, n=4..8", budget=1.0):
        mismatches = 0
        for n in range(4, 9):
            pts = regular_polygon_points(n)
            edges = list(itertools.combinations(range(1, n + 1), 2))
            for e1, e2 in itertools.combinations(edges, 2):
                if set(e1) & set(e2):
                    continue
                geometric = segments_cross(
                    pts[e1[0] - 1], pts[e1[1] - 1], pts[e2[0] - 1], pts[e2[1] - 1]
                )
                if convex_crossing_rule(n, e1, e2) != geometric:
                    mismatches += 1
        assert mismatches == 0


def test_c02_nonconvex_quadruples_never_cross():
    with criterion(2, "triangular-hull 4-point subsets of the 7x7 grid have no crossings", budget=10.0):
        grid = [(x, y) for x in range(7) for y in range(7)]
        checked = 0
        for quad in itertools.combinations(grid, 4):
            if any(orient(a, b, c) == 0 for a, b, c in itertools.combinations(quad, 3)):
                continue
            others = {
                p: [q for q in quad if q != p] for p in quad
            }
            if not any(point_in_triangle_strict(p, *others[p]) for p in quad):
                continue  # convex hull is a quadrilateral
            pts = [Point(x, y) for x, y in quad]
            for (i, j), (k, l) in itertools.combinations(itertools.combinations(range(4), 2), 2):
                if {i, j} & {k, l}:
                    continue
                assert not segments_cross(pts[i], pts[j], pts[k], pts[l]), quad
            checked += 1
        assert checked > 0


def test_c03_figure1_homomorphically_distinct():
    with criterion(3, "figure-1 K6 drawings admit no geometric hom either way", budget=30.0):
        left = figure_graphs("figure1_left")
        right = figure_graphs("figure1_right")
        assert find_geometric_hom(left, crossing_structure(right)) is None
        assert find_geometric_hom(right, crossing_structure(left)) is None
        crossed = set()
        for c in crossings_of(left):
            crossed.update(c.edges())
        assert any(all(e in crossed for e in left.edges if v in e) for v in range(6))
        crossed_r = set()
        for c in crossings_of(right):
            crossed_r.update(c.edges())
        assert not any(all(e in crossed_r for e in right.edges if v in e) for v in range(6))
        assert len(crossings_of(right)) > len(crossings_of(left))


def test_c04_figure6_exact_values(store):
    with criterion(4, "figure-6: X'=5, X=6, lower bound 6, chi=3", budget=60.0):
        g = figure_graphs("figure6")
        assert pseudo_geochromatic_number(g)[0] == 5
        res = geochromatic_number(g, store, max_n=7)
        assert res is not None and res.n == 6
        assert is_geometric_hom(g, res.target, res.witness)
        assert geochromatic_lower_bound(g) == 6
        assert chromatic_number(g)[0] == 3


def test_c05_star_theorem(store):
    with criterion(5, "star family: k crossings, bundled map verifies, X=4 for k=1..10"):
        for k in range(1, 11):
            g, beta = star_crossing(k)
            assert len(crossings_of(g)) == k
            assert is_geometric_hom(g, convex_clique(4), beta)
            res = geochromatic_number(g, store, max_n=7)
            assert res is not None and res.n == 4


def test_c06_dist2_lifts_200_random(store):
    with criterion(6, "distance-2 theorem on 200 seeded random graphs", budget=300.0):
        for seed in range(200):
            g = _random_instance(seed, min_dist=2)
            chi, alpha = chromatic_number(g)
            rep = lift_dist2(g, alpha)  # verifies internally, raises on failure
            assert rep.target_size == chi + 2
            crossing_vertices = set().union(set(), *(c.vertices for c in crossings_of(g)))
            for v in range(g.n):
                new = rep.beta.images[v] + 1
                if new != alpha.colors[v]:
                    assert v in crossing_vertices and new in (chi + 1, chi + 2)
            if chi + 2 <= 6:
                res = geochromatic_number(g, store, max_n=chi + 2)
                assert res is not None and res.n <= chi + 2


def test_c07_noncollapsing_lifts_200_random():
    with criterion(7, "2n theorem on 200 random graphs with a non-collapsing coloring", budget=300.0):
        qualified = 0
        seed = 0
        while qualified < 200:
            assert seed < 600, "too few qualifying instances"
            g = _random_instance(seed, min_dist=1)
            seed += 1
            chi, _ = chromatic_number(g)
            alpha = find_noncollapsing_hom(g, chi) or find_noncollapsing_hom(g, chi + 1)
            if alpha is None:
                continue
            qualified += 1
            rep = lift_independent_noncollapsing(g, alpha)
            assert rep.target_size == 2 * alpha.n
            for v in range(g.n):
                assert rep.beta.images[v] + 1 - alpha.colors[v] in (0, alpha.n)


def test_c08_independent_lifts_200_random():
    with criterion(8, "3n theorem on 200 seeded random independent-crossing graphs", budget=300.0):
        for seed in range(200, 400):
            g = _random_instance(seed, min_dist=1)
            chi, alpha = chromatic_number(g)
            rep = lift_independent(g, alpha)
            assert rep.target_size == 3 * chi
            for v in range(g.n):
                assert rep.beta.images[v] + 1 - alpha.colors[v] in (0, chi, 2 * chi)


def test_c09_small_chi_lifts_200_random(store):
    with criterion(9, "2*chi theorem on 200 random graphs with chi in {2,3}", budget=300.0):
        qualified = 0
        seed = 400
        while qualified < 200:
            assert seed < 900, "too few qualifying instances"
            g = _random_instance(seed, min_dist=1)
            seed += 1
            chi, alpha = chromatic_number(g)
            if chi not in (2, 3):
                continue
            qualified += 1
            rep = lift_small_chi(g, alpha)
            assert rep.target_size == 2 * chi
            res = geochromatic_number(g, store, max_n=2 * chi)
            assert res is not None and res.n <= 2 * chi


def test_c10_sandwich_property(store):
    with criterion(10, "chi <= X' <= X, lower bound <= X, crossings force >= 4"):
        corpus = [figure_graphs(tag) for tag in (
            "figure1_left", "figure1_right", "figure2_left", "figure2_right",
            "figure3_left", "figure3_right", "figure6",
        )]
        corpus += [star_crossing(k)[0] for k in range(1, 7)]
        corpus += [separation_family(1), separation_family(2)]
        for seed in range(40):
            corpus.append(random_geometric_graph(4 + seed % 6, 0.3, min_crossing_distance=seed % 3, seed=900 + seed))
        for g in corpus:
            chi = chromatic_number(g)[0]
            px = pseudo_geochromatic_number(g)[0]
            lower = geochromatic_lower_bound(g)
            assert chi <= px
            has_crossing = bool(crossings_of(g))
            if has_crossing:
                assert px >= 4
            res = geochromatic_number(g, store, max_n=6) if lower <= 6 else None
            if res is not None:
                assert px <= res.n
                assert lower <= res.n
                if has_crossing:
                    assert res.n >= 4


def test_c11_separation_family_gap(store):
    with criterion(11, "separation family: X - X' = n for n = 1, 2", budget=600.0):
        gaps = {}
        for n in (1, 2):
            g = separation_family(n)
            px = pseudo_geochromatic_number(g)[0]
            res = geochromatic_number(g, store, max_n=7)
            assert res is not None, f"X(separation({n})) must resolve within max_n=7"
            gaps[n] = (res.n, px, res.n - px)
            print(f"  separation({n}): X={res.n} X'={px} gap={res.n - px} "
                  f"(branch: X resolved exactly)")
        for n in (1, 2):
            x, px, gap = gaps[n]
            assert gap == n, (
                f"claimed gap X - X' = {n} does not hold: X={x}, X'={px}, gap={gap}; "
                "these are exact solver values with verified witnesses, so the "
                "separation construction does not achieve the nominal gap"
            )


def test_c12_crossing_predicate_oracle():
    with criterion(12, "segment predicate agrees with the rational oracle on 1e5 quadruples"):
        rng = random.Random(20260809)
        spans = (8, 40, 10**6)
        disagreements = 0
        for i in range(100_000):
            span = spans[i % len(spans)]
            while True:
                raw = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4)]
                if len(set(raw)) == 4:
                    break
            pts = [Point(x, y) for x, y in raw]
            got = segments_cross(*pts)
            want = rational_segments_cross(*raw)
            if got != want:
                disagreements += 1
        assert disagreements == 0


def _sample_structures(n, samples, seed):
    """Random large-coordinate K_n drawings -> canonical forms, memoized by mask."""
    rng = random.Random(seed)
    edges = list(itertools.combinations(range(n), 2))
    pairs = [
        (e1, e2)
        for e1, e2 in itertools.combinations(edges, 2)
        if not set(e1) & set(e2)
    ]
    span = 10**6
    mask_canon = {}
    seen = set()
    got = 0
    while got < samples:
        pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
        if any(orient(a, b, c) == 0 for a, b, c in itertools.combinations(pts, 3)):
            continue
        got += 1
        mask = 0
        bit = 1
        for (i, j), (k, l) in pairs:
            if rational_segments_cross(pts[i], pts[j], pts[k], pts[l]):
                mask |= bit
            bit <<= 1
        canon = mask_canon.get(mask)
        if canon is None:
            crossing_list = [
                pr for idx, pr in enumerate(pairs) if mask >> idx & 1
            ]
            canon = CrossingStructure(n, edges, crossing_list).canonical_form
            mask_canon[mask] = canon
        seen.add(canon)
    return seen


def test_c13_catalog_sanity():
    with criterion(13, "catalog counts, grid oracle, committed catalogs, memberships, sampling cross-check",
                   budget=900.0):
        cats = {n: enumerate_clique_structures(n) for n in range(3, 7)}
        assert [len(cats[n].entries) for n in range(3, 7)] == [1, 2, 3, 15]
        assert cats[4].canonical_forms() == grid_structures(4, 4)
        assert cats[5].canonical_forms() == grid_structures(5, 5)
        for n, cat in cats.items():
            committed = json.loads((CACHE_DIR / f"k{n}.catalog.json").read_text())
            assert {e.structure.hex for e in cat.entries} == {item["canonical"] for item in committed["entries"]}

        c5 = cats[5]
        convex5 = crossing_structure(convex_clique(5)).canonical_form
        assert convex5 in c5.canonical_forms()

        c6 = cats[6]
        convex6 = crossing_structure(convex_clique(6)).canonical_form
        forms6 = c6.canonical_forms()
        assert convex6 in forms6
        for tag in ("figure1_left", "figure1_right"):
            assert crossing_structure(figure_graphs(tag)).canonical_form in forms6

        # independent random-sampling oracle: 1e6 draws, no unseen structure
        sampled5 = _sample_structures(5, 300_000, seed=13)
        assert sampled5 <= c5.canonical_forms()
        sampled6 = _sample_structures(6, 700_000, seed=31)
        assert sampled6 <= forms6
        print(f"  sampling found {len(sampled5)}/{len(c5.entries)} K5 and "
              f"{len(sampled6)}/{len(c6.entries)} K6 structures, none new")
