"""Constructions for every graph family and figure used in the write-up.

Figure coordinates are integer transcriptions of the drawings. The two
rows-of-a-grid figures contain collinear triples as drawn, so those use a
small frozen jitter that keeps every crossing pair (and hence all caption
claims) intact while restoring general position. Each constructor re-checks
the properties the figure is cited for and fails loudly on a bad
transcription.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

from .catalog import convex_clique
from .errors import UnknownFigure
from .geometry import Point, _distinct_slopes, is_general_position, regular_polygon_points
from .graphs import (
    Crossing,
    GeometricGraph,
    _crossing_gap,
    min_pairwise_crossing_distance,
)
from .verify import Coloring, VertexMap, is_geometric_hom, is_pseudo_coloring


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"figure transcription broken: {what}")


@lru_cache(maxsize=None)
def star_crossing(k: int) -> tuple[GeometricGraph, VertexMap]:
    """A drawing with exactly k crossings and geochromatic number 4.

    k = 1 is the convex 4-clique with the identity map. For k > 1: spokes
    from a center to k leaves on a quarter-circle arc, all crossed by one
    extra segment; the bundled map sends the star onto hull edge {1,3} and
    the crossing segment onto {2,4} of the convex 4-clique.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        g = convex_clique(4)
        return g, VertexMap((0, 1, 2, 3), 4)
    radius = 10**6
    lo, hi = math.pi / 4, 3 * math.pi / 4
    while True:
        pts = [Point(0, 0)]
        for i in range(k):
            ang = lo + (hi - lo) * i / (k - 1)
            pts.append(Point(round(radius * math.cos(ang)), round(radius * math.sin(ang))))
        for ang in (lo - math.pi / 16, hi + math.pi / 16):
            r = radius // 2
            pts.append(Point(round(r * math.cos(ang)), round(r * math.sin(ang))))
        if is_general_position(pts):
            break
        radius += 1
    edges = [(0, i) for i in range(1, k + 1)] + [(k + 1, k + 2)]
    g = GeometricGraph.build(pts, edges)
    want = {Crossing.make((0, i), (k + 1, k + 2)) for i in range(1, k + 1)}
    _check(g.crossings == frozenset(want), f"star_crossing({k}) crossing set")
    images = [0] + [2] * k + [1, 3]
    beta = VertexMap(tuple(images), 4)
    _check(is_geometric_hom(g, convex_clique(4), beta), f"star_crossing({k}) bundled map")
    return g, beta


@lru_cache(maxsize=None)
def separation_family(n: int) -> GeometricGraph:
    """The family built to separate X from X'; m = n+1, 3m vertices on a circle.

    Labels 1..3m sit in order around the circle. Edges: the triangle
    {1,m+1}, {1,2m+1}, {m+1,2m+1} and, for 2 <= i <= m-1, the 2-path edges
    {i,m+i} and {i,2m+i}. Labels m, 2m, 3m stay isolated. Label j is id j-1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = n + 1
    pts = regular_polygon_points(3 * m)
    edges = [(0, m), (0, 2 * m), (m, 2 * m)]
    for i in range(2, m):
        edges.append((i - 1, m + i - 1))
        edges.append((i - 1, 2 * m + i - 1))
    return GeometricGraph.build(pts, edges)


_FIGURES: dict[str, tuple[list[tuple[int, int]], list[tuple[int, int]]]] = {
    # K6 with one vertex whose incident edges are all crossed (x20)
    "figure1_left": (
        [(0, -3), (0, 19), (20, 3), (-20, 3), (-12, -20), (12, -20)],
        list(combinations(range(6), 2)),
    ),
    # convex K6 (x20)
    "figure1_right": (
        [(61, 20), (80, 10), (80, -10), (61, -20), (40, -10), (40, 10)],
        list(combinations(range(6), 2)),
    ),
    # triangle a,b,c crossed by the 2-path x-z-y (x20); whites are x=3, y=4
    "figure2_left": (
        [(0, 0), (20, 0), (10, 15), (0, 10), (20, 10), (10, -10)],
        [(0, 1), (1, 2), (0, 2), (3, 5), (4, 5)],
    ),
    # 3-path p1-p2-p3-p4 crossed by the single edge e-f (x20); whites 0 and 3
    "figure2_right": (
        [(-28, -9), (-12, -2), (-28, 2), (-12, 9), (-20, -12), (-20, 12)],
        [(0, 1), (1, 2), (2, 3), (4, 5)],
    ),
    # two crossings at graph distance 2 (x10 plus jitter for general position)
    "figure3_left": (
        [(2, -1), (10, -1), (-1, 11), (10, 8), (21, 12), (28, 9), (40, 8), (30, 2), (41, 2)],
        [(0, 3), (3, 4), (4, 5), (5, 8), (1, 2), (6, 7)],
    ),
    # two crossings at graph distance 1 (x10 plus jitter for general position)
    "figure3_right": (
        [(-1, 2), (8, 0), (18, 1), (31, 1), (1, 9), (8, 11), (18, 11), (31, 12)],
        [(0, 5), (5, 6), (3, 6), (1, 4), (2, 7)],
    ),
    # triangle a,b,c plus 2-path x-z-y with X' = 5 < 6 = X (x20)
    "figure6": (
        [(-10, 0), (10, 0), (0, 15), (-10, 10), (10, 10), (0, -8)],
        [(0, 1), (1, 2), (0, 2), (3, 5), (4, 5)],
    ),
}
FIGURE_TAGS = tuple(_FIGURES)


def figure6_coloring() -> Coloring:
    """The pseudo-geochromatic coloring printed in the figure: a,b,c,x,y,z -> 1,2,3,5,5,4."""
    return Coloring((1, 2, 3, 5, 5, 4), 5)


@lru_cache(maxsize=None)
def figure_graphs(which: str) -> GeometricGraph:
    """Transcribed figure drawing; raises UnknownFigure for unknown tags."""
    if which not in _FIGURES:
        raise UnknownFigure(f"unknown figure tag {which!r}; known: {', '.join(FIGURE_TAGS)}")
    pts, edges = _FIGURES[which]
    g = GeometricGraph.build(pts, edges)
    _validate_figure(which, g)
    return g


def _vertex_has_all_edges_crossed(g: GeometricGraph) -> bool:
    crossed = set().union(*g.crossings)
    for v in range(g.n):
        incident = [e for e in g.edges if v in e]
        if incident and all(e in crossed for e in incident):
            return True
    return False


def _validate_figure(which: str, g: GeometricGraph) -> None:
    cs = g.crossings
    if which == "figure1_left":
        _check(_vertex_has_all_edges_crossed(g), "left K6 needs an all-crossed vertex")
    elif which == "figure1_right":
        _check(not _vertex_has_all_edges_crossed(g), "right K6 must have no all-crossed vertex")
        _check(len(cs) > len(figure_graphs("figure1_left").crossings),
               "right K6 must out-cross the left one")
    elif which in ("figure2_left", "figure6"):
        # the 2-path {3,5},{4,5} must cross all three triangle edges
        _check({(0, 1), (0, 2), (1, 2)} <= set().union(*cs), f"{which}: 2-path must cross the triangle")
    elif which == "figure2_right":
        path_edges = {(0, 1), (1, 2), (2, 3)}
        crossed_by_ef = {c.e1 if c.e2 == (4, 5) else c.e2 for c in cs if (4, 5) in c}
        _check(path_edges <= crossed_by_ef, "edge {e,f} must cross all three path edges")
    elif which == "figure3_left":
        _check(len(cs) == 2 and min_pairwise_crossing_distance(g) == 2,
               "left drawing needs two crossings at distance 2")
    elif which == "figure3_right":
        _check(len(cs) == 2 and min_pairwise_crossing_distance(g) == 1,
               "right drawing needs two crossings at distance 1")
    if which == "figure6":
        _check(is_pseudo_coloring(g, figure6_coloring()), "printed coloring must be pseudo-valid")


def random_geometric_graph(
    vertex_count: int,
    edge_probability: float,
    min_crossing_distance: int = 0,
    seed: int = 0,
) -> GeometricGraph:
    """Seeded random general-position drawing with spaced crossings.

    Points are uniform integer coordinates, edges independent coin flips,
    drawn once. While two crossings are closer than the requested threshold,
    the second edge of the later crossing in the first conflict is deleted;
    deleting edges never brings crossings closer, so this always ends, and a
    draw that already meets the threshold is returned as drawn (no crossings
    counts as satisfied). Deterministic for a fixed seed.
    """
    if vertex_count < 1:
        raise ValueError(f"vertex_count must be at least 1, got {vertex_count}")
    if not 0 <= edge_probability <= 1:  # also rejects NaN
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
    if min_crossing_distance not in (0, 1, 2):
        raise ValueError("min_crossing_distance must be 0, 1 or 2")
    rng = random.Random(seed)
    span = 10**6
    # The kept points are in general position, so a candidate keeps them so
    # when it is new and no two of them are collinear with it: O(n) each.
    kept_xy: list[tuple[int, int]] = []
    while len(kept_xy) < vertex_count:
        cand = rng.randint(-span, span), rng.randint(-span, span)
        if cand not in kept_xy and _distinct_slopes(*cand, kept_xy):
            kept_xy.append(cand)
    pts = [Point(x, y) for x, y in kept_xy]
    edges = [
        (u, v)
        for u, v in combinations(range(vertex_count), 2)
        if rng.random() < edge_probability
    ]
    g = GeometricGraph.build(pts, edges)
    crossings = dict.fromkeys(g.sorted_crossings)  # dicts keep the sorted order through deletions
    on_edge: dict[tuple[int, int], list[Crossing]] = {}
    for c in crossings:
        for e in c:
            on_edge.setdefault(e, []).append(c)
    kept = dict.fromkeys(sorted(g.edges))
    while (conflict := _crossing_gap(vertex_count, kept, crossings, min_crossing_distance)[1]) is not None:
        gone = conflict[0].e2
        del kept[gone]
        for c in on_edge[gone]:
            crossings.pop(c, None)
    if len(kept) < len(g.edges):
        g = GeometricGraph(g.points, frozenset(kept))
    return g
