"""Independent oracles used to compute and check expected values.

Deliberately self-contained: these re-derive answers with different methods
(exact rationals, exhaustive enumeration) so they can disagree with the
package when the package is wrong. The one import from the package is the
pair of exception types that reference_dispatch raises, so that a refusal
compares by type.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from geochrom.errors import CollapsedCrossingPair, LiftInternalError


def rational_segments_cross(a1, a2, b1, b2) -> bool:
    """Proper-crossing test by solving for intersection parameters exactly.

    Points are (x, y) int tuples. Returns True iff the unique intersection
    of the supporting lines exists and both parameters are strictly inside
    (0, 1). Parallel and collinear configurations return False. The
    parameters are t/denom and u/denom; with denom made positive, 0 < t/denom
    < 1 is 0 < t < denom, so the test stays on ints
    (fraction_segments_cross is the same predicate on Fractions).
    """
    (x1, y1), (x2, y2) = a1, a2
    (x3, y3), (x4, y4) = b1, b2
    rx, ry = x2 - x1, y2 - y1
    sx, sy = x4 - x3, y4 - y3
    denom = rx * sy - ry * sx
    if denom == 0:
        return False
    t = (x3 - x1) * sy - (y3 - y1) * sx
    u = (x3 - x1) * ry - (y3 - y1) * rx
    if denom < 0:
        denom, t, u = -denom, -t, -u
    return 0 < t < denom and 0 < u < denom


def fraction_segments_cross(a1, a2, b1, b2) -> bool:
    """rational_segments_cross with the parameters as Fractions: the reference it must equal."""
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


def fraction_intersection_point(p1, p2, q1, q2) -> tuple[float, float]:
    """Where the lines p1p2 and q1q2 meet, as floats of the exact Fraction point: the render reference."""
    rx, ry = p2.x - p1.x, p2.y - p1.y
    sx, sy = q2.x - q1.x, q2.y - q1.y
    t = Fraction((q1.x - p1.x) * sy - (q1.y - p1.y) * sx, rx * sy - ry * sx)
    return (float(p1.x + t * rx), float(p1.y + t * ry))


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


def reference_min_crossing_distance(n: int, edges, crossings) -> int | float:
    """Least graph_distance over unordered pairs of crossings, each given as an edge pair."""
    vertex_sets = [set(e1) | set(e2) for e1, e2 in crossings]
    return min((graph_distance(n, edges, a, b) for a, b in itertools.combinations(vertex_sets, 2)),
               default=math.inf)


def reference_crossings_too_close(edges, crossings, minimum: int):
    """The first crossing closer than `minimum` (0..2) to an earlier one, and why; or None.

    Distance >= 1 is vertex-disjointness, and distance >= 2 also forbids an
    edge between two different crossings. Vertices are visited in the order
    of each crossing's `vertices`, which fixes the vertex a message names.
    """
    if minimum < 1:
        return None
    seen: dict[int, int] = {}
    for idx, cr in enumerate(crossings):
        for v in cr.vertices:
            if v in seen and seen[v] != idx:
                return cr, f"crossings {crossings[seen[v]]} and {cr} share vertex {v}"
            seen[v] = idx
    if minimum >= 2:
        for u, v in edges:
            iu, iv = seen.get(u), seen.get(v)
            if iu is not None and iv is not None and iu != iv:
                return crossings[max(iu, iv)], f"edge ({u},{v}) joins two different crossings (distance 1)"
    return None


def parabola_chain(k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Points and edges of k X-gadgets on the parabola, joined in a row by 3-edge paths.

    Vertex x sits at (x, x^2), so every vertex is in convex position and two
    edges cross exactly when their ends alternate along the parabola: only
    each gadget's (b, b+2) and (b+1, b+3). Each path joins one gadget's
    (b+1, b+3) to the next one's (b, b+2), so neighbours in the row are at
    distance 3 and all other pairs of crossings unconnected.
    """
    points = [(x, x * x) for x in range(6 * k - 2)]
    edges = []
    for i in range(k):
        b = 6 * i
        edges += [(b, b + 2), (b + 1, b + 3)]
        if i + 1 < k:
            edges += [(b + 3, b + 4), (b + 4, b + 5), (b + 5, b + 6)]
    return points, edges


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


def odd_cycle_pairs(n: int, edges, crossings) -> set:
    """Rule D by plain search: the ends u < v of each 2-path u-w-v whose two
    edges' crossed sets together hold an odd cycle.

    `crossings` holds ((a, b), (c, d)) edge pairs. For each 2-path, a BFS
    two-coloring of the union of the edges crossed by uw and by vw; an edge
    between two vertices of one color closes an odd cycle.
    """
    crossed = {tuple(sorted(e)): set() for e in edges}
    for e1, e2 in crossings:
        crossed[tuple(sorted(e1))].add(tuple(sorted(e2)))
        crossed[tuple(sorted(e2))].add(tuple(sorted(e1)))
    adj = _neighbours(n, edges)
    found = set()
    for w in range(n):
        for u, v in itertools.combinations(sorted(adj[w]), 2):
            union = crossed[tuple(sorted((u, w)))] | crossed[tuple(sorted((v, w)))]
            nbrs = _neighbours(n, union)
            color = {}
            for start in range(n):
                if start in color:
                    continue
                color[start] = 0
                queue = deque([start])
                while queue:
                    x = queue.popleft()
                    for y in nbrs[x]:
                        if y not in color:
                            color[y] = 1 - color[x]
                            queue.append(y)
                        elif color[y] == color[x]:
                            found.add((u, v))
    return found


def two_sides(n, pairs):
    """(component, side) for each vertex on one of the pairs of a bipartite
    graph, by BFS from the least unlabelled vertex."""
    nbrs = _neighbours(n, pairs)
    label = {}
    for start in range(n):
        if start in label or not nbrs[start]:
            continue
        label[start] = (start, 0)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if y not in label:
                    label[y] = (start, 1 - label[x][1])
                    queue.append(y)
    return label


def reference_distinctness(n, edges, crossings) -> dict:
    """Rules A-D tagged pair by pair: {sorted pair: frozenset of rule letters}.

    The package's former builder, which kept one tag set per pair: A tags
    each edge, B all six pairs of each crossing, C every labelled pair of one
    component on opposite sides of an edge's crossed set, and D the pairs of
    odd_cycle_pairs. `crossings` holds ((a, b), (c, d)) edge pairs.
    """
    tags = {}

    def add(pair, tag):
        tags.setdefault(pair, set()).add(tag)

    for e in edges:
        add(tuple(sorted(e)), "A")
    crossed = {}
    for e1, e2 in crossings:
        e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
        for pair in itertools.combinations(sorted(e1 + e2), 2):
            add(pair, "B")
        crossed.setdefault(e1, set()).add(e2)
        crossed.setdefault(e2, set()).add(e1)
    for pairs in crossed.values():
        label = two_sides(n, pairs)
        for u, v in itertools.combinations(sorted(label), 2):
            if label[u][0] == label[v][0] and label[u][1] != label[v][1]:
                add((u, v), "C")
    for pair in odd_cycle_pairs(n, edges, crossings):
        add(pair, "D")
    return {pair: frozenset(ts) for pair, ts in tags.items()}


def reference_union_has_odd_cycle(c1, c2) -> bool:
    """Whether two bipartite graphs, given by their two_sides labels, have a non-bipartite union.

    The package's former rule D test, tied per shared vertex: each vertex
    both graphs hold ties the flip of its component in one to the flip of its
    component in the other, checked by a parity union-find whose nodes are
    the components (those of c2 stored as ~id); parent[x] is (parent,
    parity), parity 1 meaning x is flipped against its parent.
    """
    shared = c1.keys() & c2.keys()
    if len(shared) < 2:
        return False
    parent = {}

    def find(x):
        parity = 0
        while x in parent:
            x, p = parent[x]
            parity ^= p
        return x, parity

    for v in shared:
        (a, side1), (b, side2) = c1[v], c2[v]
        (ra, pa), (rb, pb) = find(a), find(~b)
        flip = side1 ^ side2 ^ pa ^ pb  # the parity v demands between ra and rb
        if ra != rb:
            parent[ra] = (rb, flip)
        elif flip:
            return True
    return False


class _EdgePair(NamedTuple):
    """A crossing as a pair of sorted edges, lesser first."""

    e1: tuple
    e2: tuple

    @property
    def vertices(self):
        return {*self.e1, *self.e2}


def reference_random_geometric_graph(vertex_count, edge_probability, min_crossing_distance, seed):
    """(points, kept edges) of the seeded drawing, by the generator's former deletion loop.

    Draws as random_geometric_graph does: integer points in general
    position, then one coin per vertex pair. A candidate point is kept when
    it is new and no two kept points are collinear with it, checked pair by
    pair with orient: cubic in the point count, as the generator's loop was
    before it compared slopes from the candidate. While
    reference_crossings_too_close names a conflict, it deletes the second
    edge of that crossing and rescans the whole crossing list for the
    crossings that edge was on.
    """
    rng = random.Random(seed)
    span = 10**6
    points = []
    while len(points) < vertex_count:
        cand = (rng.randint(-span, span), rng.randint(-span, span))
        if cand not in points and all(orient(a, b, cand) != 0 for a, b in itertools.combinations(points, 2)):
            points.append(cand)
    edges = [(u, v) for u, v in itertools.combinations(range(vertex_count), 2) if rng.random() < edge_probability]
    crossings = sorted(_EdgePair(*c) for c in crossing_pairs_raw(points, edges))
    kept = set(edges)
    while (conflict := reference_crossings_too_close(sorted(kept), crossings, min_crossing_distance)) is not None:
        gone = conflict[0].e2
        kept.discard(gone)
        crossings = [c for c in crossings if gone not in c]
    return points, sorted(kept)


# --- reference searches -------------------------------------------------------
#
# The check-after-assign depth-first search that the package's search core
# replaced with forward checking. Each reference below takes the same vertex
# order and ascending value order as its package counterpart and checks a
# value only after writing it, so it finds the first map of that order by
# direct search; the package must return exactly the same map.


def check_after_assign(images, k, pick, fits, symmetric) -> bool:
    """Fill every -1 entry of images with a value in 0..k-1 that fits(v) accepts.

    pick(depth) names the vertex to map at that depth; fits(v) judges the
    value just written to images[v] against the vertices already mapped.
    With `symmetric` a vertex tries at most one value that no vertex holds
    yet (preset values must be 0..m-1). Returns True with images filled, or
    False with images as given.
    """
    todo = images.count(-1)

    def extend(depth, used):
        if depth == todo:
            return True
        v = pick(depth)
        for t in range(min(k, used + 1) if symmetric else k):
            images[v] = t
            if fits(v) and extend(depth + 1, max(used, t + 1)):
                return True
        images[v] = -1
        return False

    return extend(0, max(images, default=-1) + 1)


def _neighbours(n, pairs):
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _quads_at(n, crossings):
    at = [[] for _ in range(n)]
    for (a, b), (c, d) in crossings:
        for v in (a, b, c, d):
            at[v].append((a, b, c, d))
    return at


def _fits(images, adj, quads_at, edge_ok, cross_ok):
    def fits(v):
        t = images[v]
        if any(images[w] >= 0 and not edge_ok(v, w, t, images[w]) for w in adj[v]):
            return False
        for quad in quads_at[v]:
            imgs = [images[u] for u in quad]
            if -1 not in imgs and not cross_ok(*imgs):
                return False
        return True

    return fits


def reference_greedy_clique(adj) -> list:
    """Greedy clique: vertices by decreasing degree, then id, each kept when
    adjacent to every vertex kept before it."""
    clique = []
    for v in sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v)):
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def reference_dsatur(adj) -> list:
    """DSATUR greedy coloring 1.. of adjacency sets: each step colors the
    uncolored vertex with the most distinct neighbour colors, then the most
    neighbours, then the least id, with the least color no neighbour holds.
    """
    n = len(adj)
    colors = [0] * n
    saturation = [set() for _ in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] == 0),
                key=lambda u: (len(saturation[u]), len(adj[u]), -u))
        c = 1
        while c in saturation[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            saturation[w].add(c)
    return colors


def reference_chromatic(n, edges, clique, greedy):
    """(k, colors) by the DSATUR-ordered search from the clique precolored 0..m-1.

    `clique` and `greedy` (a proper coloring with colors 1..ub) are the
    starting clique and the fallback; chi is the first k below ub that
    admits a coloring, else ub with `greedy`.
    """
    adj = _neighbours(n, edges)
    images = [-1] * n

    def pick(depth):
        return min((v for v in range(n) if images[v] < 0),
                   key=lambda v: (-len({images[w] for w in adj[v] if images[w] >= 0}), -len(adj[v]), v))

    fits = _fits(images, adj, [()] * n, lambda v, w, t, s: t != s, None)
    ub = max(greedy)
    for k in range(len(clique), ub):
        images[:] = [-1] * n
        for i, v in enumerate(clique):
            images[v] = i
        if check_after_assign(images, k, pick, fits, True):
            return k, tuple(c + 1 for c in images)
    return ub, tuple(greedy)


def reference_geometric_hom(n, edges, crossings, apart, t_n, t_edges, t_crossings):
    """First map in decreasing crossing-degree order onto a target structure, or None.

    Edges go onto target edges, crossings onto target crossings, and the
    pairs in `apart` onto distinct vertices.
    """
    t_adj = {tuple(sorted(e)) for e in t_edges}
    t_cross = {tuple(sorted((tuple(sorted(e1)), tuple(sorted(e2))))) for e1, e2 in t_crossings}
    adj = _neighbours(n, edges)
    forced = _neighbours(n, apart)
    quads_at = _quads_at(n, crossings)
    order = sorted(range(n), key=lambda v: (-len(quads_at[v]), v))
    images = [-1] * n

    def cross_ok(a, b, c, d):
        return tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d)))))) in t_cross

    maps_graph = _fits(images, adj, quads_at, lambda v, w, t, s: tuple(sorted((t, s))) in t_adj, cross_ok)

    def fits(v):
        return all(images[w] != images[v] for w in forced[v]) and maps_graph(v)

    if check_after_assign(images, t_n, order.__getitem__, fits, False):
        return tuple(images)
    return None


def reference_noncollapsing(n, edges, crossings, colors):
    """First proper coloring, symmetry broken, with no crossing on one color pair, or None.

    Colors are 1..colors; vertices go in decreasing degree plus crossing degree.
    """
    adj = _neighbours(n, edges)
    quads_at = _quads_at(n, crossings)
    order = sorted(range(n), key=lambda v: (-(len(adj[v]) + len(quads_at[v])), v))
    images = [-1] * n
    fits = _fits(images, adj, quads_at, lambda v, w, t, s: t != s, lambda a, b, c, d: {a, b} != {c, d})
    if check_after_assign(images, colors, order.__getitem__, fits, True):
        return tuple(c + 1 for c in images)
    return None


def reference_maps_into(n, source_crossings, target_crossings):
    """First bijection of K_n sending every source crossing onto a target crossing, or None.

    A vertex may only go to a vertex whose sorted per-edge crossing counts
    dominate its own, and each edge only onto an edge in at least as many
    crossings; vertices with fewest such candidates go first.
    """

    def per_edge(crossings):
        count = [[0] * n for _ in range(n)]
        for (a, b), (c, d) in crossings:
            for u, v in ((a, b), (b, a), (c, d), (d, c)):
                count[u][v] += 1
        return count

    source, target = per_edge(source_crossings), per_edge(target_crossings)
    target_rows = [sorted(row) for row in target]
    candidates = [{w for w in range(n) if all(a <= b for a, b in zip(sorted(row), target_rows[w]))}
                  for row in source]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), -sum(source[v])))
    t_quads = {quad for (a, b), (c, d) in target_crossings
               for quad in itertools.permutations((a, b, c, d))
               if {quad[0], quad[1]} in ({a, b}, {c, d})}
    images = [-1] * n
    everyone = [set(range(n)) - {v} for v in range(n)]
    maps_crossings = _fits(images, everyone, _quads_at(n, source_crossings),
                           lambda v, w, t, s: t != s and source[v][w] <= target[t][s],
                           lambda *quad: quad in t_quads)

    def fits(v):
        return images[v] in candidates[v] and maps_crossings(v)

    if check_after_assign(images, n, order.__getitem__, fits, False):
        return tuple(images)
    return None


# --- reference canonical forms -----------------------------------------------
#
# The package's two former canonicalizations, kept as references for its
# individualization-refinement search.
#
# reference_canonical_form refines the all-zero colouring once, then tries
# every relabelling that respects the refined classes and keeps the least
# serialization, in the package's byte format. Exponential in the class sizes
# (the convex K_8 tries 8! relabellings), so only for small inputs. Its forms
# are a different labelling from the package's: compare equality relations.
#
# reference_ir_canonical_form is the package's search as it was before it
# jumped back to the common ancestor on each automorphism found: it visits
# every branch that orbit pruning leaves, refilters every automorphism and
# recomputes the orbit at each sibling, and refines on nested tuples. Its
# forms must equal the package's byte for byte.


def reference_signature_pass(n, adj, incid, classes):
    """One refinement pass: every vertex ranked by its full signature.

    That is its class, degree, crossing degree and the sorted classes of its
    neighbours and of its crossings (partner, crossed edge), for settled and
    unsettled vertices alike.
    """
    sigs = []
    for v in range(n):
        nbr = tuple(sorted(classes[u] for u in adj[v]))
        crs = tuple(sorted((classes[p], tuple(sorted((classes[a], classes[b])))) for p, (a, b) in incid[v]))
        sigs.append((classes[v], len(adj[v]), len(incid[v]), nbr, crs))
    order = sorted(set(sigs))
    return [order.index(s) for s in sigs]


def reference_search_start(n: int, edges, crossings) -> list:
    """One signature pass from the colouring that is uniform but for the isolated vertices.

    Those come first, each alone and by id, as the search never branches on
    them; every other vertex starts in one shared class.
    """
    _, _, adj, incid = _canonical_inputs(n, edges, crossings)
    isolated = [v for v in range(n) if not adj[v]]
    classes = [len(isolated)] * n
    for rank, v in enumerate(isolated):
        classes[v] = rank
    return reference_signature_pass(n, adj, incid, classes)


def _reference_classes(n, adj, incid, classes=None):
    """The coarsest stable refinement of `classes` (default all zero), as ranks 0..k-1."""
    classes = [0] * n if classes is None else classes
    while True:
        new = reference_signature_pass(n, adj, incid, classes)
        if new == classes:
            return classes
        classes = new


def _canonical_inputs(n, edges, crossings):
    """Sorted edges, crossings as pairs of sorted edges, neighbour sets and (partner, crossed edge) per vertex."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    crossings = [(tuple(sorted(e)), tuple(sorted(f))) for e, f in crossings]
    incid = [[] for _ in range(n)]
    for (a, b), (c, d) in crossings:
        incid[a].append((b, (c, d)))
        incid[b].append((a, (c, d)))
        incid[c].append((d, (a, b)))
        incid[d].append((c, (a, b)))
    return edges, crossings, _neighbours(n, edges), incid


def _serialization(n, perm, edges, crossings):
    def code(u, v):
        return min(perm[u], perm[v]) * n + max(perm[u], perm[v])

    es = tuple(sorted(code(u, v) for u, v in edges))
    cs = tuple(sorted(min(code(a, b), code(c, d)) * n * n + max(code(a, b), code(c, d))
                      for (a, b), (c, d) in crossings))
    return es, cs


def _form_bytes(n, es, cs) -> bytes:
    return b"".join([n.to_bytes(2, "big"), len(es).to_bytes(2, "big"), *(c.to_bytes(2, "big") for c in es),
                     len(cs).to_bytes(2, "big"), *(c.to_bytes(4, "big") for c in cs)])


def reference_canonical_form(n: int, edges, crossings) -> bytes:
    """Least serialization over every relabelling that keeps the refined classes in order."""
    edges, crossings, adj, incid = _canonical_inputs(n, edges, crossings)
    classes = _reference_classes(n, adj, incid)
    blocks = [[v for v in range(n) if classes[v] == c] for c in range(max(classes, default=-1) + 1)]
    best = None
    perm = [0] * n
    for assignment in itertools.product(*(itertools.permutations(b) for b in blocks)):
        for pos, v in enumerate(itertools.chain.from_iterable(assignment)):
            perm[v] = pos
        form = _serialization(n, perm, edges, crossings)
        if best is None or form < best:
            best = form
    return _form_bytes(n, *best)


def _orbit(v, generators):
    orbit, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for g in generators:
            if g[u] not in orbit:
                orbit.add(g[u])
                stack.append(g[u])
    return orbit


def reference_ir_canonical_form(n: int, edges, crossings) -> bytes:
    """Least leaf of the individualization-refinement tree, pruned by orbits only (n <= 256)."""
    edges, crossings, adj, incid = _canonical_inputs(n, edges, crossings)
    leaves = {}
    automorphisms = []

    def search(classes, chosen):
        classes = _reference_classes(n, adj, incid, classes)
        target = next((c for c in range(n) if classes.count(c) > 1), None)
        if target is None:
            first = leaves.setdefault(_serialization(n, classes, edges, crossings), classes)
            if first is not classes:
                vertex_at = {pos: v for v, pos in enumerate(first)}
                automorphisms.append([vertex_at[pos] for pos in classes])
            return
        tried = []
        for v in [u for u in range(n) if classes[u] == target]:
            if tried:
                fixing = [g for g in automorphisms if all(g[u] == u for u in chosen)]
                if not _orbit(v, fixing).isdisjoint(tried):
                    continue
            tried.append(v)
            search([2 * c + (c == target and u != v) for u, c in enumerate(classes)], chosen + [v])

    search([0] * n, [])
    return _form_bytes(n, *min(leaves))


# --- order types: the enumeration's former pure-predicate forms --------------
# catalog._order_type and catalog._face_points read one orientation table and
# do integer arithmetic; these call the orientation predicate afresh for every
# test and compute with Fractions, and must give the same keys and points.


def reference_order_type(points) -> tuple:
    """The least chirotope over hull starts and mirror images, of (x, y) tuples.

    A hull vertex p is one inside no triangle of the others; seen from it the
    others sort by angle under the orientation predicate, and s = -1 reads
    the mirror image.
    """
    best = None
    for p in points:
        rest = [q for q in points if q != p]
        if any(orient(a, b, p) == orient(b, c, p) == orient(c, a, p)
               for a, b, c in itertools.combinations(rest, 3)):
            continue
        for s in (1, -1):
            order = [p, *sorted(rest, key=functools.cmp_to_key(lambda a, b: -s * orient(p, a, b)))]
            chirotope = tuple(s * orient(a, b, c) for a, b, c in itertools.combinations(order, 3))
            if best is None or chirotope < best:
                best = chirotope
    return best


def _by_angle(r, q) -> int:
    """Order directions by their angle from the positive x axis, in [0, 2 pi)."""
    return ((q[1], q[0]) > (0, 0)) - ((r[1], r[0]) > (0, 0)) or -orient((0, 0), r, q)


def reference_face_points(points) -> list:
    """Fraction points inside every face of the arrangement of the lines through two of the (x, y) tuples.

    One point per wedge at each arrangement vertex: the vertex moved along the
    sum of the wedge's rays half-way to the first other line in that
    direction, or by that sum when no line is ahead.
    """
    lines = [(a[1] - b[1], b[0] - a[0], a[0] * b[1] - a[1] * b[0]) for a, b in itertools.combinations(points, 2)]
    through: dict = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
        det = a1 * b2 - a2 * b1
        if det:
            v = (Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))
            through.setdefault(v, set()).update((i, j))
    out = []
    for (vx, vy), on in through.items():
        rays = sorted((r for a, b, _ in map(lines.__getitem__, on) for r in ((b, -a), (-b, a))),
                      key=functools.cmp_to_key(_by_angle))
        for r1, r2 in zip(rays, rays[1:] + rays[:1]):
            dx, dy = r1[0] + r2[0], r1[1] + r2[1]
            along = [(a * vx + b * vy + c, a * dx + b * dy) for a, b, c in lines]
            t = min((-value / rate for value, rate in along if value * rate < 0), default=Fraction(2)) / 2
            out.append((vx + t * dx, vy + t * dy))
    return out


@functools.lru_cache(maxsize=None)
def reference_order_types(n: int) -> tuple:
    """One point set per order type of n points, keying every wedge point of every parent.

    Each face point (x, y) of reference_face_points, with w the least common
    denominator of its coordinates, extends the parent scaled by w by
    (x w, y w); every extension is keyed by reference_order_type, each key
    keeps the least (max |coordinate|, extension), and the kept extensions
    come in key order.
    """
    if n == 3:
        return (((0, 0), (1, 0), (0, 1)),)
    found = {}
    for pts in reference_order_types(n - 1):
        for x, y in reference_face_points(pts):
            w = math.lcm(x.denominator, y.denominator)
            ext = tuple((px * w, py * w) for px, py in pts) + ((int(x * w), int(y * w)),)
            candidate = (max(abs(c) for p in ext for c in p), ext)
            key = reference_order_type(ext)
            found[key] = min(found.get(key, candidate), candidate)
    return tuple(found[key][1] for key in sorted(found))


# --- lifts: the case analysis with one branch per method in every case -------
# lifts._dispatch picks the case and the moved vertices once and then lands
# them by the method's rule; this is the form it replaced, and both must
# give the same tag and moves, or raise the same refusal, on every pattern.


def _reference_vertex_with(lab: list[int], edge: tuple[int, int], value: int) -> int:
    u, v = edge
    if lab[u] == value:
        return u
    assert lab[v] == value
    return v


def reference_dispatch(method: str, n: int, lab: list[int], cr) -> tuple[str, list]:
    """Case tag and label reassignments for one crossing, branching on the method in every case.

    `lab` holds the base labels (alpha, or recoded alpha for smallchi); `n`
    is the label count they occupy, so spare hull room starts at n+1.
    """
    e1, e2 = cr.e1, cr.e2
    s1 = {lab[e1[0]], lab[e1[1]]}
    s2 = {lab[e2[0]], lab[e2[1]]}
    shared = s1 & s2

    if s1 == s2:
        p1, p2 = sorted(s1)
        u = _reference_vertex_with(lab, e1, p1)
        v = _reference_vertex_with(lab, e1, p2)
        y = _reference_vertex_with(lab, e2, p1)
        x = _reference_vertex_with(lab, e2, p2)
        if method == "dist2":
            return "3", [(v, n + 1), (y, n + 2)]
        if method == "indep2n":
            raise CollapsedCrossingPair(
                f"crossing {e1}x{e2} has both edges colored {sorted(s1)}; "
                "try find_noncollapsing_hom or lift_independent"
            )
        if method == "indep3n":
            return "3", [(x, p2 + n), (u, p1 + 2 * n)]
        return "3", [(y, p1 + 1), (x, p2 + 1)]  # smallchi

    if len(shared) == 1:
        s = next(iter(shared))
        leaf1 = next(iter(s1 - shared))
        leaf2 = next(iter(s2 - shared))
        lo_edge, lo_leaf = (e1, leaf1) if leaf1 < leaf2 else (e2, leaf2)
        hi_edge, hi_leaf = (e2, leaf2) if leaf1 < leaf2 else (e1, leaf1)
        a_shared = _reference_vertex_with(lab, lo_edge, s)
        b_shared = _reference_vertex_with(lab, hi_edge, s)
        b_leaf = _reference_vertex_with(lab, hi_edge, hi_leaf)
        if lo_leaf < s < hi_leaf:
            if method == "dist2":
                return "2a", [(a_shared, n + 1), (b_leaf, n + 2)]
            if method in ("indep2n", "indep3n"):
                return "2a", [(a_shared, s + n), (b_leaf, hi_leaf + n)]
            return "2a", [(a_shared, s + 1)]  # smallchi
        if s > hi_leaf:
            if method == "dist2":
                return "2b", [(b_shared, n + 1)]
            if method in ("indep2n", "indep3n"):
                return "2b", [(b_shared, s + n)]
            return "2b", [(b_shared, s + 1)]  # smallchi
        # shared value below both leaves
        if method == "dist2":
            return "2b", [(a_shared, n + 1)]
        if method in ("indep2n", "indep3n"):
            return "2b", [(a_shared, s + n)]
        return "2b", [(b_shared, s + 1)]  # smallchi

    # disjoint images: four distinct labels
    p1, p2, p3, p4 = sorted(s1 | s2)
    lo_pair = s1 if p1 in s1 else s2
    if p3 in lo_pair:
        return "1", []  # labels alternate: the images already cross
    if method == "smallchi":
        raise LiftInternalError("disjoint images cannot occur with at most 3 colors")
    if p2 in lo_pair:
        # separated: {p1,p2} then {p3,p4}
        lo_edge = e1 if s1 == {p1, p2} else e2
        hi_edge = e2 if lo_edge is e1 else e1
        v = _reference_vertex_with(lab, lo_edge, p2)
        x = _reference_vertex_with(lab, hi_edge, p3)
        if method == "dist2":
            return "1a", [(v, n + 1), (x, n + 2)]
        return "1a", [(v, p2 + n), (x, p3 + n)]
    # nested: {p1,p4} around {p2,p3}
    inner_edge = e1 if s1 == {p2, p3} else e2
    v = _reference_vertex_with(lab, inner_edge, p3)
    if method == "dist2":
        return "1b", [(v, n + 1)]
    return "1b", [(v, p3 + n)]
