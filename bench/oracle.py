"""Exact predicates and witness verifiers written without the geochrom package.

The benchmark checks every answer the package gives against these, so a
wrong answer fails the run even when the package's own verifiers agree
with it.
"""

from __future__ import annotations

from itertools import combinations

Edge = tuple[int, int]


def turn(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def cross(p1, p2, q1, q2) -> bool:
    """Proper crossing of segments p1p2 and q1q2 with four distinct endpoints."""
    return turn(p1, p2, q1) * turn(p1, p2, q2) < 0 and turn(q1, q2, p1) * turn(q1, q2, p2) < 0


def crossing_pairs(points, edges) -> list[tuple[Edge, Edge]]:
    """Sorted crossing pairs (e1, e2), e1 < e2, of a straight-line drawing."""
    es = sorted(tuple(sorted(e)) for e in edges)
    out = []
    for i, (a, b) in enumerate(es):
        for c, d in es[i + 1:]:
            if len({a, b, c, d}) == 4 and cross(points[a], points[b], points[c], points[d]):
                out.append(((a, b), (c, d)))
    return out


def distance_conflict(edges, crossings, min_dist: int) -> Edge | None:
    """An edge that keeps the crossings closer than `min_dist`, or None.

    Distance >= 1 means the crossings are pairwise vertex-disjoint; distance
    >= 2 also forbids an edge joining two different crossings.
    """
    owner: dict[int, int] = {}
    for idx, (e1, e2) in enumerate(crossings):
        for v in e1 + e2:
            if v in owner and owner[v] != idx:
                return e1
            owner[v] = idx
    if min_dist >= 2:
        for u, v in sorted(edges):
            if u in owner and v in owner and owner[u] != owner[v]:
                return (u, v)
    return None


def min_crossing_distance(edges, crossings) -> int:
    """0, 1 or 2: how far apart the crossings are, capped at 2."""
    for d in (1, 2):
        if distance_conflict(edges, crossings, d) is not None:
            return d - 1
    return 2


def is_proper(edges, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in edges)


def is_pseudo(edges, crossings, colors) -> bool:
    """Proper, and the four vertices of every crossing get distinct colors."""
    return is_proper(edges, colors) and all(
        len({colors[v] for v in e1 + e2}) == 4 for e1, e2 in crossings
    )


def _pair(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def is_hom(edges, crossings, images, target_edges, target_crossings) -> bool:
    """`images` maps edges onto target edges and crossings onto target crossings."""
    t_edges = {_pair(*e) for e in target_edges}
    t_cross = {tuple(sorted((_pair(*e1), _pair(*e2)))) for e1, e2 in target_crossings}
    for u, v in edges:
        if images[u] == images[v] or _pair(images[u], images[v]) not in t_edges:
            return False
    for (a, b), (c, d) in crossings:
        f1, f2 = _pair(images[a], images[b]), _pair(images[c], images[d])
        if tuple(sorted((f1, f2))) not in t_cross:
            return False
    return True


def convex_clique_relation(m: int) -> tuple[list[Edge], list[tuple[Edge, Edge]]]:
    """Edges and crossings of K_m in convex position, vertices 0..m-1 in hull order."""
    edges = list(combinations(range(m), 2))
    crossings = [
        ((a, c), (b, d)) for a, b, c, d in combinations(range(m), 4)  # diagonals of a convex quad
    ]
    return edges, crossings
