"""Geometric graphs, their derived crossing sets, and coordinate-free structures.

A GeometricGraph is a straight-line drawing: vertex ids 0..n-1 with exact
integer positions in general position, plus an abstract edge set. Crossings
are always derived from the coordinates, never stored as input.

A CrossingStructure forgets the coordinates and keeps only what geometric
homomorphisms care about: the adjacency relation and which disjoint edge
pairs cross. Its canonical form is a byte string that two structures share
exactly when some relabeling preserves adjacency, non-adjacency, crossings
and non-crossings.

A drawing is its points plus one structure, `structure`, built on first
read. Beyond its edges, a drawing keeps only geometric facts: one straddle
pass finds its crossings in sorted order, kept as `sorted_crossings` beside
`sorted_edges`, and `crossing_gap`, the threshold-2 verdict of _crossing_gap
over them, decides the distance hypothesis of all four lifts. The structure
adopts the drawing's edge set and those Crossing objects, already in normal
form, and checks each crossing as the public constructor does. All else is the
structure's: `crossings`, a frozenset of Crossing (a pair of edges, lesser
edge first, a plain tuple that equals and hashes like its edge pair), and
the search views, each built on its first read: `crossing_index` (see
CrossingIndex) for a search mapping into it, and `neighbour_rows` (bit w of
row v for each edge vw) and `crossing_partners` (see _crossing_partners) for
one mapping out of it. Every solver reads the structure that _structure
returns for a drawing, a structure or an abstract (n, edges) graph.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import starmap
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import GraphFormatError, _Record
from .geometry import Point, is_general_position

Edge = tuple[int, int]


def _edge_set(n: int, edges: Iterable[Iterable[int]]) -> frozenset[Edge]:
    """The edges as sorted pairs: the one rule for n vertices and an edge set on them.

    n must be a non-negative int and each edge must join two distinct int ids
    of 0..n-1, bools refused; anything else raises ValueError naming the count
    or the edge.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a non-negative int, got {n!r}")
    pairs = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int or u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) must join two distinct ids of 0..{n - 1}")
        pairs.add((u, v) if u < v else (v, u))
    return frozenset(pairs)


class GeometricGraph(_Record):
    """Any iterable of edges is accepted and stored as a frozenset of sorted pairs."""

    _fields = ("points", "edges")
    points: tuple[Point, ...]
    edges: frozenset[Edge]

    def __init__(self, points: tuple[Point, ...], edges: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "edges", _edge_set(len(points), edges))
        if not is_general_position(points):
            raise ValueError("vertex positions are not in general position")

    @classmethod
    def build(cls, points: Iterable[Point | tuple[int, int]], edges: Iterable[Iterable[int]]) -> "GeometricGraph":
        return cls(tuple(p if isinstance(p, Point) else Point(*p) for p in points), edges)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def sorted_crossings(self) -> tuple["Crossing", ...]:
        # Memoized on the instance, so it lives exactly as long as the graph.
        #
        # One straddle pass. inc[v] has bit i for each edge i at v, in
        # sorted-edge order. For edge i = uv, vertex w lies strictly left or
        # right of its line, or on it, by the sign of (v - u) x (w - u),
        # computed as dx*y - dy*x against its value at u. The OR of inc over
        # the vertices strictly left, ANDed with the OR over those strictly
        # right, is the set of edges with one end on each side: the edges
        # that straddle the line. An edge sharing an end with uv has that end
        # on the line, so it never straddles. Disjoint edges cross exactly
        # when each straddles the other's line, the four signs segments_cross
        # reads, so E*n determinants and one bit test per straddling pair
        # replace four determinants per edge pair. Walking i < j in
        # sorted-edge order emits the crossings already sorted.
        es = self.sorted_edges
        inc = [0] * self.n
        for i, (u, v) in enumerate(es):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        points = self.points
        ends = [(p.x, p.y, row) for p, row in zip(points, inc) if row]  # an isolated vertex adds no edge
        straddle = []
        for u, v in es:
            pu, pv = points[u], points[v]
            dx, dy = pv.x - pu.x, pv.y - pu.y
            at_u = dx * pu.y - dy * pu.x
            left = right = 0
            for x, y, row in ends:
                d = dx * y - dy * x
                if d > at_u:
                    left |= row
                elif d < at_u:
                    right |= row
            straddle.append(left & right)
        out = []
        for i, e1 in enumerate(es):
            later = straddle[i] >> i + 1
            j = i
            while later:
                low = later & -later
                j += low.bit_length()
                later >>= low.bit_length()
                if straddle[j] >> i & 1:
                    out.append(Crossing(e1, es[j]))
        return tuple(out)

    @cached_property
    def structure(self) -> "CrossingStructure":
        # __init__ ran _edge_set on these edges and the straddle pass emits
        # each crossing in Crossing's form, so the structure adopts both.
        return CrossingStructure._adopt(self.n, self.edges, self.sorted_crossings)

    @property
    def crossings(self) -> frozenset["Crossing"]:
        return self.structure.crossings

    @cached_property
    def crossing_gap(self) -> tuple[int | float, tuple["Crossing", str] | None]:
        # At threshold 2, over the sorted crossings: the verdict of every lift.
        return _crossing_gap(self.n, self.edges, self.sorted_crossings, 2)


def _adj_lists(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Neighbour lists of vertices 0..n-1 under an undirected edge set."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _adj_rows(n: int, edges: Iterable[Edge]) -> list[int]:
    """Neighbour rows of vertices 0..n-1 under an undirected edge list: bit w of row v for each edge vw."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _crossing_partners(n: int, crossings: Iterable[Crossing]) -> list[list[tuple[int, int, int]]]:
    """For each vertex v of 0..n-1, a triple (p, c, d) for each crossing vp x cd that v lies on."""
    at: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (a, b), (c, d) in crossings:
        at[a].append((b, c, d))
        at[b].append((a, c, d))
        at[c].append((d, a, b))
        at[d].append((c, a, b))
    return at


class Crossing(NamedTuple):
    """An unordered pair of disjoint edges whose segments cross, lesser edge first."""

    e1: Edge
    e2: Edge

    @classmethod
    def make(cls, e1: Iterable[int], e2: Iterable[int]) -> "Crossing":
        (u, v), (x, y) = e1, e2
        a = (u, v) if u < v else (v, u)
        b = (x, y) if x < y else (y, x)
        return cls(a, b) if a < b else cls(b, a)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.e1) | frozenset(self.e2)

    def edges(self) -> tuple[Edge, Edge]:
        return (self.e1, self.e2)


class CrossingIndex(NamedTuple):
    """Adjacency and crossings of a search target as bitmasks of vertex ids.

    A target is a drawing, a structure, or one of the K_k that search builds:
    with no crossings for chi, and in which every two distinct edges cross
    for the non-collapsing coloring. Each comes from _crossing_index, and a
    search mapping into it reads its rules from here: where s and t are
    adjacent,
      neighbours[s]       the vertices adjacent to s;
      ends[s][t]          the vertices on an edge that crosses st;
      completions[s][t]   row[u] holds each x for which st crosses ux.
    Rows of completions are shared between st and ts, and every (s, t) on no
    crossing shares one row of zeros.
    """

    neighbours: list[int]
    ends: list[list[int]]
    completions: list[list[list[int]]]


def _crossing_index(n: int, adjacency: Iterable[Edge], crossings: Iterable[tuple[Edge, Edge]]) -> CrossingIndex:
    neighbours = _adj_rows(n, adjacency)
    ends = [[0] * n for _ in range(n)]
    zeros = [0] * n
    completions = [[zeros] * n for _ in range(n)]
    for e1, e2 in crossings:
        for (s, t), (u, x) in ((e1, e2), (e2, e1)):
            ends[s][t] = ends[t][s] = ends[s][t] | 1 << u | 1 << x
            row = completions[s][t]
            if row is zeros:
                row = completions[s][t] = completions[t][s] = [0] * n
            row[u] |= 1 << x
            row[x] |= 1 << u
    return CrossingIndex(neighbours, ends, completions)


def crossings_of(G: GeometricGraph) -> frozenset[Crossing]:
    """All properly crossing disjoint edge pairs of the drawing, computed once per graph."""
    return G.crossings


def _crossing_gap(
    n: int, edges: Collection[Edge], crossings: Iterable[Crossing], minimum: int | float = math.inf
) -> tuple[int | float, tuple[Crossing, str] | None]:
    """The least graph distance between two of the crossings, capped at `minimum`, and why.

    One BFS runs from every crossing's vertices at once; each vertex is owned
    by the crossing that reaches it first. Crossings sharing a vertex are at
    0; otherwise the least distance is the least d(u) + 1 + d(w) over edges uw
    with differently owned ends, so the BFS stops at depth (minimum - 1) / 2.
    Returns min(distance, minimum), math.inf for no two connected crossings,
    and, below both `minimum` and 2, the conflict (crossing, reason): the first
    crossing, in the given order, that shares a vertex with an earlier one,
    else the later of the two that the first edge, in the given order, joins.
    """
    if minimum <= 0:
        return minimum, None
    owner: dict[int, tuple[int, Crossing]] = {}  # (position in the given order, crossing)
    for idx, cr in enumerate(crossings):
        for v in cr.vertices:
            if v in owner:
                return 0, (cr, f"crossings {owner[v][1]} and {cr} share vertex {v}")
            owner[v] = (idx, cr)
    if minimum <= 1:
        return minimum, None
    depth = dict.fromkeys(owner, 0)
    if minimum > 2:
        adj = _adj_lists(n, edges)
        level, frontier = 0, list(owner)
        while frontier and level + 1 <= (minimum - 1) / 2:
            level += 1
            reached = []
            for v in frontier:
                for w in adj[v]:
                    if w not in depth:
                        depth[w], owner[w] = level, owner[v]
                        reached.append(w)
            frontier = reached
    best: int | float = minimum
    conflict = None
    for u, w in edges:
        if u in depth and w in depth and owner[u] != owner[w] and depth[u] + 1 + depth[w] < best:
            best = depth[u] + 1 + depth[w]
            if best == 1:
                conflict = (max(owner[u], owner[w])[1],
                            f"edge ({u},{w}) joins two different crossings (distance 1)")
    return best, conflict


def crossing_distance(G: CrossingStructure, c1: Crossing, c2: Crossing) -> int | float:
    """Minimum graph-path distance between the vertex sets of two crossings.

    0 exactly when they share a vertex; math.inf when every pair of their
    vertices lies in different components. Distance is measured in the
    abstract graph, not the plane, so a drawing gives its structure's. A
    crossing may name its edges in either order and each edge either way round.
    """
    s = _structure(G)
    c1, c2 = Crossing.make(*c1), Crossing.make(*c2)
    if c1 not in s.crossings or c2 not in s.crossings:
        raise ValueError("both crossings must belong to the graph")
    return _crossing_gap(s.n, s.adjacency, [c1, c2])[0]


def min_pairwise_crossing_distance(G: CrossingStructure) -> int | float:
    """Minimum crossing_distance over all unordered pairs of distinct crossings."""
    s = _structure(G)
    return _crossing_gap(s.n, s.adjacency, s.crossings)[0]


class CrossingStructure(_Record):
    """Coordinate-free record of a drawing: adjacency plus crossing pairs.

    Any iterables of edges and of edge pairs are accepted and stored as
    frozensets of sorted edges and of Crossing. Equality and hashing go
    through the canonical form, so two structures compare equal exactly when
    they are geometrically isomorphic.
    """

    n: int
    adjacency: frozenset[Edge]
    crossings: frozenset[Crossing]
    _canonical: bytes | None

    def __init__(self, n: int, adjacency: Iterable[Iterable[int]], crossings: Iterable) -> None:
        self._check_and_store(n, _edge_set(n, adjacency), frozenset(starmap(Crossing.make, crossings)))

    @classmethod
    def _adopt(cls, n: int, adjacency: frozenset[Edge], crossings: Iterable[Crossing]) -> "CrossingStructure":
        """The structure on edges that _edge_set returned for n and on Crossings, kept as they are.

        Only the normalizing is skipped: every crossing is still checked.
        """
        s = cls.__new__(cls)
        s._check_and_store(n, adjacency, frozenset(crossings))
        return s

    def _check_and_store(self, n: int, adj: frozenset[Edge], crs: frozenset[Crossing]) -> None:
        for e1, e2 in crs:
            if e1 not in adj or e2 not in adj:
                raise ValueError(f"crossing {e1}x{e2} uses a non-edge")
            if e1[0] in e2 or e1[1] in e2:
                raise ValueError(f"crossing {e1}x{e2} is not a disjoint pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "crossings", crs)
        object.__setattr__(self, "_canonical", None)

    @property
    def canonical_form(self) -> bytes:
        # Memoized in _canonical, not a cached_property: bench/spans.py wraps
        # this getter and reads _canonical to time only the computations.
        if self._canonical is None:
            object.__setattr__(self, "_canonical", _canonical_bytes(self))
        return self._canonical

    def _set_canonical_form(self, form: bytes) -> None:
        """Take form as the canonical form without computing it: for a form already checked against this structure."""
        object.__setattr__(self, "_canonical", form)

    @cached_property
    def crossing_index(self) -> CrossingIndex:
        return _crossing_index(self.n, self.adjacency, self.crossings)

    @cached_property
    def neighbour_rows(self) -> list[int]:
        return _adj_rows(self.n, self.adjacency)

    @cached_property
    def crossing_partners(self) -> list[list[tuple[int, int, int]]]:
        return _crossing_partners(self.n, self.crossings)

    @property
    def hex(self) -> str:
        return self.canonical_form.hex()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossingStructure):
            return NotImplemented
        return self.canonical_form == other.canonical_form

    def __hash__(self) -> int:
        return hash(self.canonical_form)

    def __repr__(self) -> str:
        return f"CrossingStructure(n={self.n}, edges={len(self.adjacency)}, crossings={len(self.crossings)})"


def crossing_structure(G: GeometricGraph) -> CrossingStructure:
    """A fresh structure equal to G.structure, its canonical form not yet computed."""
    return CrossingStructure(G.n, G.edges, G.sorted_crossings)


def _structure(g: GeometricGraph | CrossingStructure | tuple[int, Iterable[Iterable[int]]]) -> CrossingStructure:
    """A drawing's structure, a structure itself, or an (n, edges) graph as one with no crossings: what solvers read."""
    if isinstance(g, GeometricGraph):
        return g.structure
    if isinstance(g, CrossingStructure):
        return g
    n, edges = g
    return CrossingStructure(n, edges, ())


# --- canonicalization -------------------------------------------------------
#
# Individualization-refinement (McKay and Piperno, "Practical graph
# isomorphism, II", J. Symb. Comput. 60, 2014). An ordered vertex colouring is
# refined until all vertices of a class agree on degree, crossing degree and
# the multisets of classes among their neighbours and crossing partners. New
# classes are ranked by these signatures, never by vertex id, so refinement
# commutes with relabelling. While some class holds several vertices, each
# vertex of the first such class in turn gets a class of its own, just ahead
# of the rest, and the colouring is refined again. Each branch ends in a
# colouring with one vertex per class: a relabelling, whose serialization is
# a leaf. The set of leaves depends only on the isomorphism class, and the
# canonical form is its least element.
#
# A leaf is kept as its form bytes (_form_bytes), and the form is the least
# of them. Every leaf of one structure has the same n, edge count and
# crossing count, so the same fields at the same offsets, and each code is
# fixed-width and big-endian: byte order is the order of the (edge codes,
# crossing codes) tuples, and the least bytes are the least leaf.
#
# Two leaves with equal serializations differ by an automorphism, which fixes
# every vertex the two paths chose in common. Two cuts use it:
# - jump-back: the search returns at once to the deepest common ancestor of
#   the two leaves. The automorphism maps the child of that ancestor holding
#   the earlier leaf onto the one holding the later, so the rest of the later
#   subtree holds the same leaves as one already explored;
# - orbit pruning: a branch is skipped when the automorphisms found so far
#   that fix every vertex chosen above it map an earlier sibling onto its
#   vertex. Each node keeps their orbits in a union-find, reading each
#   automorphism once, and skips a sibling sharing a root with one tried.
#
# A third cut needs no leaf: twins. Two vertices u and v of the class a node
# branches on are twins when they have the same neighbours and the same
# crossing partner list. Equal neighbour sets make them non-adjacent. Equal
# partner lists rule out a crossing of an edge at u with an edge at v, as it
# would show in v's list as a crossing of two edges at v, which a structure
# refuses. So swapping u and v alone is an automorphism, which fixes every
# chosen vertex and maps v's subtree onto u's, and the node joins each set of
# twins in its union-find before its first child. Only that class is scanned,
# and only at a node that branches: neighbour sets first, partner lists
# within a repeat.
# So symmetric structures visit few leaves (the convex K_12 visits 3, and
# star_crossing(11) 2), the star K_1,k refines k times, not k(k + 1)/2, and
# most drawings, whose first refinement already separates every vertex,
# visit one.
#
# Every order of the isolated vertices gives the same leaves, so the search
# starts with each in a class of its own, ranked ahead of all other vertices,
# where refinement would put their one shared class, and never branches on
# them. The others start ranked by degree and then crossing degree: that is
# what a pass from one shared class gives them, because every neighbour and
# crossing partner of a vertex with an edge has an edge too, so its
# neighbour and partner multisets hold one class and differ only in size.
#
# So every class that refinement is handed already agrees on degree and
# crossing degree: the start ranks by both, and each later colouring only
# splits classes. A signature therefore leaves both counts out, and is one
# flat list: the class, the sorted neighbour classes, the sorted crossing
# codes. Within a class the three parts have the same lengths, so the lists
# compare as the tuples (class, degree, crossing degree, neighbours,
# crossings) would, and vertices are ranked by sorting their ids on them.
#
# A vertex alone in its class is settled: no later pass can split it, and its
# class, the first field of every signature, already fixes its rank. A pass
# gives it the signature [class] and never reads its lists.


def _refine_partition(
    classes: list[int], adj: list[list[int]], partners: list[list[tuple[int, int, int]]]
) -> list[int]:
    """The coarsest stable refinement of an ordered colouring, as ranks 0..k-1.

    The classes are below 2n, the start ranks or the 2c and 2c + 1 that the
    search hands over, and each holds one degree and one crossing degree, so
    a signature is the flat list [class, sorted neighbour classes, sorted
    crossing codes] (see the comment above).

    partners is _crossing_partners: (p, a, b) per crossing vp x ab at v, read
    as the int (class of p * n + lesser class) * n + greater class, which
    orders like the triple while every class is below n. A vertex's
    signature begins with its class, so every class splits in place and the
    order of classes is kept.

    A vertex alone in its class gets the signature [class], and its lists
    are never read: its class alone fixes its rank, since no other vertex
    shares it.

    A colouring with one vertex per class is stable, and a pass over it would
    only compact its classes, so it returns as soon as a pass leaves it
    discrete. A colouring discrete on entry takes one pass that reads no list,
    every signature being [class], and comes back as the ranks of its classes.
    """
    n = len(classes)
    count = len(set(classes))
    while True:
        sizes = [0] * (2 * n)
        for c in classes:
            sizes[c] += 1
        sigs = []
        for v, c in enumerate(classes):
            if sizes[c] == 1:
                sigs.append([c])
                continue
            crs = []
            for p, a, b in partners[v]:
                ca, cb = classes[a], classes[b]
                crs.append((classes[p] * n + ca) * n + cb if ca <= cb else (classes[p] * n + cb) * n + ca)
            crs.sort()
            sig = [classes[u] for u in adj[v]]
            sig.sort()
            sig.insert(0, c)
            sig += crs
            sigs.append(sig)
        classes = [0] * n
        r = -1
        last = None
        for v in sorted(range(n), key=sigs.__getitem__):
            if sigs[v] != last:
                last = sigs[v]
                r += 1
            classes[v] = r
        if r + 1 == count or r + 1 == n:
            return classes
        count = r + 1


def _root(parent: list[int], u: int) -> int:
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]  # path halving
    return u


def _canonical_bytes(s: CrossingStructure) -> bytes:
    n = s.n
    adj = _adj_lists(n, s.adjacency)
    partners = s.crossing_partners
    edge_list = s.adjacency
    # Flat exact tuples: unpacking a Crossing, a tuple subclass, in the loop
    # in serialize costs about three times as much.
    cross_list = [e1 + e2 for e1, e2 in s.crossings]
    n2 = n * n

    def serialize(perm: list[int]) -> bytes:
        es = []
        for u, v in edge_list:
            a, b = perm[u], perm[v]
            es.append(a * n + b if a < b else b * n + a)
        es.sort()
        cs = []
        for u, v, x, y in cross_list:
            a, b = perm[u], perm[v]
            c, d = perm[x], perm[y]
            e1 = a * n + b if a < b else b * n + a
            e2 = c * n + d if c < d else d * n + c
            cs.append(e1 * n2 + e2 if e1 < e2 else e2 * n2 + e1)
        cs.sort()
        return _form_bytes(n, es, cs)

    leaves: dict[bytes, tuple[list[int], list[int]]] = {}
    automorphisms: list[list[int]] = []

    def children(classes: list[int], chosen: list[int]) -> Iterator[tuple[list[int], list[int]]]:
        """Each child (colouring, path) of the node reached by `chosen` that neither twins nor automorphisms prune."""
        sizes = [0] * n
        for c in classes:
            sizes[c] += 1
        target = next(c for c, size in enumerate(sizes) if size > 1)
        members = [u for u, c in enumerate(classes) if c == target]
        orbit = list(range(n))
        # Twins share one orbit from the start (see the comment above).
        by_neighbours: dict[tuple[int, ...], list[int]] = {}
        for u in members:
            by_neighbours.setdefault(tuple(sorted(adj[u])), []).append(u)
        for same in by_neighbours.values():
            if len(same) > 1:
                by_partners: dict[tuple[tuple[int, int, int], ...], list[int]] = {}
                for u in same:
                    by_partners.setdefault(tuple(sorted(partners[u])), []).append(u)
                for twins in by_partners.values():
                    for u in twins[1:]:
                        orbit[u] = twins[0]
        seen = 0
        tried: list[int] = []
        for v in members:
            if tried:
                for g in automorphisms[seen:]:
                    if all(g[u] == u for u in chosen):
                        for u, w in enumerate(g):
                            if u != w:
                                orbit[_root(orbit, u)] = _root(orbit, w)
                seen = len(automorphisms)
                if _root(orbit, v) in {_root(orbit, u) for u in tried}:
                    continue
            tried.append(v)
            yield [2 * c + (c == target and u != v) for u, c in enumerate(classes)], chosen + [v]

    # The start of the comment above, from one int key per vertex: degree * m
    # + crossing degree, with m above every crossing degree, so 0 exactly for
    # the isolated vertices, which take ranks 0, 1, ... by id.
    m = len(s.crossings) + 1
    keys = [len(nbrs) * m + len(at) for nbrs, at in zip(adj, partners)]
    isolated = keys.count(0)
    rank = {k: r for r, k in enumerate(sorted(set(keys) - {0}), isolated)}
    ids = iter(range(isolated))
    classes, chosen = [rank[k] if k else next(ids) for k in keys], []
    path: list[Iterator[tuple[list[int], list[int]]]] = []  # the branching nodes above this one, the deepest last
    while True:
        classes = _refine_partition(classes, adj, partners)
        if max(classes, default=-1) < n - 1:  # some class holds several vertices
            path.append(children(classes, chosen))
        else:
            first, first_chosen = leaves.setdefault(serialize(classes), (classes, chosen))
            if first is not classes:
                vertex_at = [0] * n
                for v, pos in enumerate(first):
                    vertex_at[pos] = v
                automorphisms.append([vertex_at[pos] for pos in classes])
                # Jump back: the common ancestor, at the depth of the first vertex the two paths chose apart.
                del path[next(i for i, (u, w) in enumerate(zip(chosen, first_chosen)) if u != w) + 1:]
        while path and (node := next(path[-1], None)) is None:
            path.pop()
        if not path:
            return min(leaves)
        classes, chosen = node


def _form_bytes(n: int, es: Sequence[int], cs: Sequence[int]) -> bytes:
    """The canonical form: n, then the count and codes of the edges, then of the crossings.

    w bytes hold a vertex id: 1 up to n = 256, the width that the forms in
    format-2 catalog files were written with. An edge code is below n^2 and a
    crossing code below n^4, so they take 2w and 4w bytes. n takes 2 bytes,
    or 0xFFFF and 8 bytes from n = 65 535 on. Both counts take 2w bytes; the
    edge count, below n^2 / 2, always fits, and a crossing count that does
    not (66 045 for the convex K_37) is written as 2w bytes of 0xFF and the
    count in 8. The crossing codes end the form, so its length tells such a
    count from 2^(16w) - 1 written plainly.
    """
    w = max(1, ((n - 1).bit_length() + 7) // 8)
    e, c = 2 * w, 4 * w
    return b"".join([
        n.to_bytes(2, "big") if n < 0xFFFF else b"\xff\xff" + n.to_bytes(8, "big"),
        len(es).to_bytes(e, "big"),
        *[code.to_bytes(e, "big") for code in es],
        len(cs).to_bytes(e, "big") if len(cs) < 1 << 8 * e else b"\xff" * e + len(cs).to_bytes(8, "big"),
        *[code.to_bytes(c, "big") for code in cs],
    ])


# --- JSON graph format ------------------------------------------------------
#
# { "vertices": [ {"id": 0, "x": -10, "y": 0}, ... ], "edges": [ [0,1], ... ] }
# Writers emit vertices sorted by id and each edge as [min,max], edges sorted
# lexicographically; that makes output byte-identical across runs.


def graph_to_json_dict(G: GeometricGraph) -> dict:
    return {
        "vertices": [{"id": i, "x": p.x, "y": p.y} for i, p in enumerate(G.points)],
        "edges": [list(e) for e in G.sorted_edges],
    }


def graph_from_json_dict(doc: Mapping) -> GeometricGraph:
    if not isinstance(doc, Mapping) or "vertices" not in doc or "edges" not in doc:
        raise GraphFormatError("graph JSON must have 'vertices' and 'edges'")
    verts = doc["vertices"]
    if not isinstance(verts, list):
        raise GraphFormatError("'vertices' must be a list")
    seen: dict[int, Point] = {}
    for item in verts:
        try:
            vid, x, y = item["id"], item["x"], item["y"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"vertex entry {item!r} lacks id/x/y") from exc
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise GraphFormatError(f"vertex entry {item!r} must have an integer id")
        if vid in seen:
            raise GraphFormatError(f"duplicate vertex id {vid}")
        try:
            seen[vid] = Point(x, y)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"vertex {vid}: {exc}") from exc
    n = len(seen)
    if set(seen) != set(range(n)):
        raise GraphFormatError("vertex ids must be exactly 0..n-1")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], int) and isinstance(e[1], int)
                and not isinstance(e[0], bool) and not isinstance(e[1], bool)):
            raise GraphFormatError(f"edge entry {e!r} must be a pair of ids")
    try:  # GeometricGraph rejects loops, missing ids and points not in general position
        G = GeometricGraph(tuple(seen[i] for i in range(n)), edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    if len(G.edges) != len(edges):  # the edge set drops a repeat silently
        raise GraphFormatError("duplicate edges not allowed")
    return G


def _read_json(path: str | Path):
    """The JSON document in the UTF-8 file at `path`: the one reader of input files.

    Raises GraphFormatError naming the file when it cannot be read, is not
    UTF-8, is not JSON or nests too deeply to decode.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc
