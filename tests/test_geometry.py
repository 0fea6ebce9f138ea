import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geochrom import (
    COORD_BOUND,
    Point,
    SharedEndpoint,
    convex_crossing_rule,
    is_general_position,
    orientation,
    regular_polygon_points,
    segments_cross,
)
from geochrom.geometry import _distinct_slopes
from oracles import fraction_segments_cross, general_position, orient, rational_segments_cross

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


def test_orientation_basic_triples():
    assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


@given(points, points, points)
def test_orientation_flips_under_swaps(p, q, r):
    o = orientation(p, q, r)
    assert o in (-1, 0, 1)
    assert orientation(q, p, r) == -o
    assert orientation(p, r, q) == -o


# Collinear triples: r = p + k (q - p) for a small integer k.
collinear = st.builds(lambda p, q, k: (p, q, Point(p.x + k * (q.x - p.x), p.y + k * (q.y - p.y))),
                      points, points, st.integers(min_value=-3, max_value=3))


@given(st.one_of(st.tuples(points, points, points), collinear))
def test_orientation_equals_the_oracle(triple):
    p, q, r = triple
    assert orientation(p, q, r) == orient((p.x, p.y), (q.x, q.y), (r.x, r.y))


def test_point_rejects_floats_and_overflow():
    with pytest.raises(TypeError):
        Point(0.5, 1)
    with pytest.raises(ValueError):
        Point(COORD_BOUND + 1, 0)
    Point(COORD_BOUND, -COORD_BOUND)  # boundary is allowed


def test_segments_cross_examples():
    assert segments_cross(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))
    assert not segments_cross(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))


def test_segments_cross_shared_endpoint_raises():
    with pytest.raises(SharedEndpoint):
        segments_cross(Point(0, 0), Point(1, 1), Point(0, 0), Point(2, 0))
    with pytest.raises(SharedEndpoint):
        segments_cross(Point(0, 0), Point(0, 0), Point(1, 0), Point(2, 0))


def test_segments_cross_touching_is_false():
    # endpoint of one segment in the interior of the other
    assert not segments_cross(Point(0, 0), Point(4, 0), Point(2, 0), Point(2, 3))
    # collinear overlap
    assert not segments_cross(Point(0, 0), Point(4, 0), Point(1, 0), Point(3, 0))


@given(st.lists(points, min_size=4, max_size=4, unique=True))
def test_segments_cross_symmetric(pts):
    a1, a2, b1, b2 = pts
    assert segments_cross(a1, a2, b1, b2) == segments_cross(b1, b2, a1, a2)
    assert segments_cross(a1, a2, b1, b2) == segments_cross(a2, a1, b1, b2)


@settings(max_examples=300)
@given(st.lists(points, min_size=4, max_size=4, unique=True))
def test_segments_cross_matches_rational_oracle(pts):
    a1, a2, b1, b2 = pts
    expected = rational_segments_cross((a1.x, a1.y), (a2.x, a2.y), (b1.x, b1.y), (b2.x, b2.y))
    assert segments_cross(a1, a2, b1, b2) == expected


def _quadruple_kind(a1, a2, b1, b2) -> str:
    """How two closed segments meet, from their intersection parameters as Fractions."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = a1, a2, b1, b2
    denom = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
    if denom == 0:
        return "collinear" if orient(a1, a2, b1) == orient(a1, a2, b2) == 0 else "parallel"
    t = Fraction((x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3), denom)
    u = Fraction((x3 - x1) * (y2 - y1) - (y3 - y1) * (x2 - x1), denom)
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return "apart"
    return "crossing" if 0 < t < 1 and 0 < u < 1 else "touching"


def test_rational_oracle_equals_its_fraction_form():
    # The oracle compares ints against the cleared denominator; its Fraction
    # form is the reference. Grids of side 5 and 9 make parallel, collinear
    # and touching quadruples common; the span 10^6 makes the products large.
    rng = random.Random(41)
    kinds = Counter()
    for i in range(24_000):
        span = (2, 4, 10**6)[i % 3]
        quad = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4)]
        assert rational_segments_cross(*quad) == fraction_segments_cross(*quad), quad
        kinds[_quadruple_kind(*quad)] += 1
    assert min(kinds[k] for k in ("crossing", "touching", "parallel", "collinear", "apart")) >= 500, kinds


def test_general_position_examples():
    assert is_general_position([Point(0, 0), Point(1, 0), Point(0, 1)])
    assert not is_general_position([Point(0, 0), Point(1, 1), Point(2, 2)])
    assert not is_general_position([Point(0, 0), Point(0, 0), Point(1, 2)])


def test_general_position_matches_triple_oracle_on_small_grids():
    # On a 5 x 5 to 9 x 9 grid collinear triples are common, so both answers occur. So they do on a grid of
    # coordinates near -2^30, 0 and 2^30, where differences reach 2^31 and distinct slopes come within 2^-62.
    rng = random.Random(5)
    near_bound = [-COORD_BOUND + d for d in range(3)] + list(range(-2, 3)) + [COORD_BOUND - d for d in range(3)]
    answers = {False: set(), True: set()}  # by whether the grid is the one near the bound
    for trial in range(3600):
        values = range(5 + trial % 5) if trial < 3000 else near_bound
        pts = [(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(0, 9))]
        expected = general_position(pts)
        assert is_general_position([Point(x, y) for x, y in pts]) == expected, pts
        answers[trial >= 3000].add(expected)
    assert answers == {False: {True, False}, True: {True, False}}


def test_general_position_separates_slopes_2_to_the_minus_62_apart():
    # q and r seen from p: slopes (2^31 - 1) / 2^31 and (2^31 - 2) / (2^31 - 1), which differ by
    # 1 / (2^31 (2^31 - 1)), about 2^-62, the least gap two slopes can have under COORD_BOUND.
    p = (-COORD_BOUND, -COORD_BOUND)
    q = (p[0] + 2**31, p[1] + 2**31 - 1)
    r = (p[0] + 2**31 - 1, p[1] + 2**31 - 2)
    assert orient(p, q, r) != 0
    # Their float slopes are equal, so it is the fallback to exact keys that tells them apart.
    assert (q[1] - p[1]) / (q[0] - p[0]) == (r[1] - p[1]) / (r[0] - p[0])
    assert is_general_position([Point(*a) for a in (p, q, r)])
    # q - r = (1, 1), so r - (2^31 - 6)(1, 1) lies on line qr, near p
    on_qr = (r[0] - (2**31 - 6), r[1] - (2**31 - 6))
    assert orient(q, r, on_qr) == 0
    vertical = [(COORD_BOUND, -COORD_BOUND), (COORD_BOUND, 0), (COORD_BOUND, COORD_BOUND)]
    for pts in ([p, q, r, on_qr], vertical, [p, q, r, p]):
        assert not general_position(pts)
        assert not is_general_position([Point(*a) for a in pts]), pts


def test_distinct_slopes_sees_points_on_every_side():
    # The generator asks it about a candidate and the kept points, which lie in every direction from it, so a
    # direction and its reverse must share a key. Checked against orient on grids where collinear triples are
    # common, the near-bound one included.
    rng = random.Random(8)
    near_bound = [-COORD_BOUND + d for d in range(3)] + list(range(-2, 3)) + [COORD_BOUND - d for d in range(3)]
    answers = set()
    for trial in range(3000):
        values = range(-3, 4) if trial < 2500 else near_bound
        p = (rng.choice(values), rng.choice(values))
        others = list({(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(0, 6))} - {p})
        expected = all(orient(p, q, r) != 0 for q, r in itertools.combinations(others, 2))
        assert _distinct_slopes(*p, others) == expected, (p, others)
        answers.add(expected)
    assert answers == {True, False}
    assert not _distinct_slopes(0, 0, [(1, 1), (-2, -2)])
    assert not _distinct_slopes(0, 0, [(0, 1), (0, -3)])
    assert _distinct_slopes(0, 0, [(1, 2), (-1, 2), (2, -1)])


def test_figure1_left_points_are_general_position():
    # checked triple by triple against the orientation oracle
    pts = [(0, -3), (0, 19), (20, 3), (-20, 3), (-12, -20), (12, -20)]
    from oracles import orient

    assert all(orient(a, b, c) != 0 for a, b, c in itertools.combinations(pts, 3))
    assert is_general_position([Point(x, y) for x, y in pts])


def test_hexagon_alternating_chords_cross():
    pts = regular_polygon_points(6)  # label i = index i-1
    assert segments_cross(pts[0], pts[2], pts[1], pts[4])  # {1,3} x {2,5}
    assert segments_cross(pts[0], pts[3], pts[1], pts[5])  # {1,4} x {2,6}


def test_convex_crossing_rule_examples():
    assert convex_crossing_rule(4, (1, 3), (2, 4))
    assert not convex_crossing_rule(4, (1, 2), (3, 4))
    assert convex_crossing_rule(6, (1, 4), (2, 6))  # frozen from the hexagon oracle
    assert convex_crossing_rule(4, (2, 4), (1, 3))  # the lesser-labelled edge second
    assert convex_crossing_rule(6, (6, 2), (4, 1))
    assert not convex_crossing_rule(4, (3, 4), (1, 2))


def test_convex_crossing_rule_validation():
    with pytest.raises(SharedEndpoint):
        convex_crossing_rule(5, (1, 3), (3, 5))
    with pytest.raises(ValueError):
        convex_crossing_rule(3, (1, 2), (2, 3))
    with pytest.raises(ValueError):
        convex_crossing_rule(4, (0, 2), (1, 3))


@pytest.mark.parametrize("n", range(4, 9))
def test_convex_rule_equals_segments_on_regular_ngon(n):
    pts = regular_polygon_points(n)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    for e1, e2 in itertools.combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        geometric = segments_cross(
            pts[e1[0] - 1], pts[e1[1] - 1], pts[e2[0] - 1], pts[e2[1] - 1]
        )
        assert convex_crossing_rule(n, e1, e2) == geometric


def test_nonconvex_quadruples_have_no_crossings_small_grid():
    # every 4-point general-position subset of a 4x4 grid with triangular hull
    from oracles import orient, point_in_triangle_strict

    grid = [(x, y) for x in range(4) for y in range(4)]
    for quad in itertools.combinations(grid, 4):
        if any(orient(a, b, c) == 0 for a, b, c in itertools.combinations(quad, 3)):
            continue
        inner = [
            p for p in quad
            if point_in_triangle_strict(p, *[q for q in quad if q != p])
        ]
        if not inner:
            continue  # convex position
        pts = [Point(x, y) for x, y in quad]
        for (i, j), (k, l) in itertools.combinations(itertools.combinations(range(4), 2), 2):
            if {i, j} & {k, l}:
                continue
            assert not segments_cross(pts[i], pts[j], pts[k], pts[l])


def test_regular_polygon_points_of_k0_is_empty():
    assert regular_polygon_points(0) == ()
    with pytest.raises(ValueError):
        regular_polygon_points(-1)


def test_regular_polygon_points_general_position_and_order():
    for n in (3, 4, 5, 6, 8, 12, 24):
        pts = regular_polygon_points(n)
        assert len(pts) == n
        assert is_general_position(pts)
        if n >= 3:
            # convex and counterclockwise in label order
            for i in range(n):
                a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
                assert orientation(a, b, c) == 1
