"""Independent oracles used to compute and check expected values.

Deliberately self-contained: these re-derive answers with different methods
(exact rationals, exhaustive enumeration) so they can disagree with the
package when the package is wrong.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction


def rational_segments_cross(a1, a2, b1, b2) -> bool:
    """Proper-crossing test by solving for intersection parameters exactly.

    Points are (x, y) int tuples. Returns True iff the unique intersection
    of the supporting lines exists and both parameters are strictly inside
    (0, 1). Parallel and collinear configurations return False.
    """
    (x1, y1), (x2, y2) = a1, a2
    (x3, y3), (x4, y4) = b1, b2
    rx, ry = x2 - x1, y2 - y1
    sx, sy = x4 - x3, y4 - y3
    denom = rx * sy - ry * sx
    if denom == 0:
        return False
    t = Fraction((x3 - x1) * sy - (y3 - y1) * sx, denom)
    u = Fraction((x3 - x1) * ry - (y3 - y1) * rx, denom)
    return 0 < t < 1 and 0 < u < 1


def orient(a, b, c) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def general_position(points) -> bool:
    """Distinct points, no triple with orientation 0: the plain O(n^3) scan."""
    return len(set(points)) == len(points) and all(
        orient(a, b, c) != 0 for a, b, c in itertools.combinations(points, 3))


def point_in_triangle_strict(p, a, b, c) -> bool:
    s1, s2, s3 = orient(a, b, p), orient(b, c, p), orient(c, a, p)
    return s1 == s2 == s3 != 0


def graph_distance(n: int, edges, sources, targets) -> int | float:
    """Plain BFS distance between vertex sets."""
    src, dst = set(sources), set(targets)
    if src & dst:
        return 0
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {v: 0 for v in src}
    queue = deque(src)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if w in dst:
                    return dist[w]
                queue.append(w)
    return math.inf


def crossing_pairs_raw(points, edges) -> set:
    """Crossing set computed with the rational oracle, not the package."""
    es = sorted(tuple(sorted(e)) for e in edges)
    out = set()
    for e1, e2 in itertools.combinations(es, 2):
        if set(e1) & set(e2):
            continue
        if rational_segments_cross(points[e1[0]], points[e1[1]], points[e2[0]], points[e2[1]]):
            out.add((e1, e2))
    return out


def brute_force_geometric_hom_exists(src_n, src_edges, src_crossings,
                                     dst_n, dst_edges, dst_crossings) -> bool:
    """Exhaustive scan over all dst_n**src_n vertex maps."""
    dst_e = set(dst_edges)
    dst_c = set(dst_crossings)
    for images in itertools.product(range(dst_n), repeat=src_n):
        ok = True
        for u, v in src_edges:
            a, b = images[u], images[v]
            if a == b or (min(a, b), max(a, b)) not in dst_e:
                ok = False
                break
        if not ok:
            continue
        for (u, v), (x, y) in src_crossings:
            f1 = tuple(sorted((images[u], images[v])))
            f2 = tuple(sorted((images[x], images[y])))
            if len({*f1, *f2}) != 4 or tuple(sorted((f1, f2))) not in dst_c:
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_chromatic(n: int, edges, kmax: int = 9) -> int:
    """Smallest k admitting a proper coloring, by direct backtracking."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        col = [0] * n

        def bt(i: int) -> bool:
            if i == n:
                return True
            for c in range(1, k + 1):
                if all(col[w] != c for w in adj[i]):
                    col[i] = c
                    if bt(i + 1):
                        return True
                    col[i] = 0
            return False

        return bt(0)

    for k in range(1, kmax + 1):
        if colorable(k):
            return k
    raise AssertionError(f"no coloring with <= {kmax} colors")


def brute_force_noncollapsing_exists(n: int, edges, crossings, colors: int) -> bool:
    """Is some map V -> {1..colors} proper with no crossing on one color pair?

    Scans all colors**n maps; meant for n <= 7.
    """
    for col in itertools.product(range(1, colors + 1), repeat=n):
        if any(col[u] == col[v] for u, v in edges):
            continue
        if all({col[a], col[b]} != {col[c], col[d]} for (a, b), (c, d) in crossings):
            return True
    return False


def grid_structures(n: int, g: int) -> frozenset:
    """Canonical forms of K_n on every general-position n-subset of the g x g grid.

    A plain scan with `orient`: no lookup tables, no translation shells. The
    package only canonicalizes each distinct crossing set found.
    """
    from geochrom import CrossingStructure

    grid = [(x, y) for x in range(g) for y in range(g)]
    edges = list(itertools.combinations(range(n), 2))
    pairs = [(e1, e2) for e1, e2 in itertools.combinations(edges, 2) if not set(e1) & set(e2)]
    seen = set()
    for pts in itertools.combinations(grid, n):
        if any(orient(a, b, c) == 0 for a, b, c in itertools.combinations(pts, 3)):
            continue
        seen.add(frozenset(
            ((i, j), (k, l)) for (i, j), (k, l) in pairs
            if orient(pts[i], pts[j], pts[k]) != orient(pts[i], pts[j], pts[l])
            and orient(pts[k], pts[l], pts[i]) != orient(pts[k], pts[l], pts[j])
        ))
    return frozenset(CrossingStructure(n, edges, crossings).canonical_form for crossings in seen)


def odd_path_pairs(n: int, edges, crossings) -> set:
    """Rule C by brute force: endpoint pairs of odd simple paths, any length,
    whose edges are all crossed by one common edge.

    `crossings` holds ((a, b), (c, d)) edge pairs. Plain DFS over every
    simple path of each crossed-edge set; exponential, meant for small drawings.
    """
    crossed = {tuple(sorted(e)): set() for e in edges}
    for e1, e2 in crossings:
        crossed[tuple(sorted(e1))].add(tuple(sorted(e2)))
        crossed[tuple(sorted(e2))].add(tuple(sorted(e1)))
    found = set()
    for path_edges in crossed.values():
        adj = {v: [] for v in range(n)}
        for u, v in path_edges:
            adj[u].append(v)
            adj[v].append(u)

        def dfs(start, v, visited, length):
            for w in adj[v]:
                if w in visited:
                    continue
                if length % 2 == 0:  # the path to w has odd length
                    found.add((min(start, w), max(start, w)))
                visited.add(w)
                dfs(start, w, visited, length + 1)
                visited.remove(w)

        for start in range(n):
            dfs(start, start, {start}, 0)
    return found
