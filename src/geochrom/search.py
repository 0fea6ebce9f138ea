"""The search core: one depth-first backtracker behind every exact search.

`_backtrack` maps vertices into 0..k-1 one at a time, in an order the caller
picks, and a check built by `_fits` rejects a value that breaks the caller's
edge rule or, once a crossing's four ends are mapped, its crossing rule. The
module sits below catalog, obstructions and homomorphism. The callers:

  chromatic_number        DSATUR order, a greedy clique precolored, edge ends
                          differ, first-fresh-color symmetry breaking (X' is
                          chi of the graph plus every crossing's six pairs)
  find_geometric_hom      decreasing crossing degree; edges onto target edges,
                          crossings onto target crossings, forced pairs apart
  find_noncollapsing_hom  degree plus crossing degree; edge ends differ, no
                          crossing onto a single color pair, symmetry breaking
  catalog._maps_into      the dominance test between two K_n: fewest candidate
                          images first, a bijection, each edge onto one in at
                          least as many crossings, crossings onto crossings
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import CrossingStructure, Edge, GeometricGraph, _adj_lists


@dataclass(frozen=True)
class Coloring:
    """A map V -> {1..n}; doubles as the alpha input of the lifting methods."""

    colors: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        for c in self.colors:
            if not 1 <= c <= self.n:
                raise ValueError(f"color {c} outside 1..{self.n}")


def _as_abstract(g) -> tuple[int, frozenset[Edge]]:
    if isinstance(g, GeometricGraph):
        return g.n, g.edges
    if isinstance(g, CrossingStructure):
        return g.n, g.adjacency
    n, edges = g
    return n, frozenset(tuple(sorted(e)) for e in edges)


Quad = tuple[int, int, int, int]


def _crossings_at(g: GeometricGraph | CrossingStructure) -> list[list[Quad]]:
    """For each vertex, the ends (a, b, c, d) of each crossing ab x cd it lies on.

    Flat exact tuples: _fits unpacks them in every search's innermost loop,
    where a Crossing, a tuple subclass, unpacks about three times slower.
    """
    at: list[list[Quad]] = [[] for _ in range(g.n)]
    for e1, e2 in g.crossings:
        quad = (*e1, *e2)
        for v in quad:
            at[v].append(quad)
    return at


def _fits(images: list[int], adj: Sequence[set[int]], crossings_at: Sequence[Sequence[Quad]],
          edge_ok: Callable[[int, int], bool], cross_ok: Callable[..., bool] | None) -> Callable[[int], bool]:
    """The fits(v) check of _backtrack for an edge rule and a crossing rule.

    Each mapped neighbour w of v must pass edge_ok(images[v], images[w]); each
    crossing ab x cd at v whose four ends are mapped must pass
    cross_ok(images[a], images[b], images[c], images[d]).
    """

    def fits(v: int) -> bool:
        t = images[v]
        for w in adj[v]:
            s = images[w]
            if s >= 0 and not edge_ok(t, s):
                return False
        for a, b, c, d in crossings_at[v]:
            quad = images[a], images[b], images[c], images[d]
            if -1 not in quad and not cross_ok(*quad):
                return False
        return True

    return fits


def _backtrack(images: list[int], k: int, pick: Callable[[int], int], fits: Callable[[int], bool],
               symmetric: bool) -> bool:
    """Fill every -1 entry of images with a value in 0..k-1 so that fits accepts each.

    pick(depth) names the vertex to map at that depth of the search; fits(v)
    judges the value just written to images[v] against the vertices already
    mapped. With `symmetric` the values are interchangeable, so a vertex tries
    at most one value that no vertex holds yet (the values preset in images
    must then be 0..m-1). Returns True with images filled, or False with
    images as given.
    """
    todo = images.count(-1)

    def extend(depth: int, used: int) -> bool:
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


# --- exact chromatic number -------------------------------------------------


def _greedy_clique(adj: Sequence[set[int]]) -> list[int]:
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _dsatur_greedy(adj: Sequence[set[int]]) -> list[int]:
    n = len(adj)
    colors = [0] * n
    saturation: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == 0),
            key=lambda u: (len(saturation[u]), len(adj[u]), -u),
        )
        c = 1
        while c in saturation[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            saturation[w].add(c)
    return colors


def chromatic_number(G) -> tuple[int, Coloring]:
    """Exact chi with a proper witness coloring using exactly chi colors."""
    n, edges = _as_abstract(G)
    if n == 0:
        return 0, Coloring((), 0)
    if not edges:
        return 1, Coloring((1,) * n, 1)
    adj = _adj_lists(n, edges)
    clique = _greedy_clique(adj)
    greedy = _dsatur_greedy(adj)
    ub = max(greedy)
    images = [-1] * n

    def pick(depth: int) -> int:
        return min(
            (v for v in range(n) if images[v] < 0),
            key=lambda v: (-len({images[w] for w in adj[v] if images[w] >= 0}), -len(adj[v]), v),
        )

    fits = _fits(images, adj, [()] * n, operator.ne, None)
    for k in range(len(clique), ub):
        images[:] = [-1] * n
        for i, v in enumerate(clique):
            images[v] = i
        if _backtrack(images, k, pick, fits, symmetric=True):
            return k, Coloring(tuple(c + 1 for c in images), k)
    return ub, Coloring(tuple(greedy), ub)
