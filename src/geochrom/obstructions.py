"""Non-identifiability rules and the derived geochromatic lower bound.

Four reasons two vertices can never share an image under any geometric
homomorphism:

  A. they are adjacent;
  B. they lie in a common crossing;
  C. they are the endpoints of an odd-length path all of whose edges are
     crossed by one common edge;
  D. they are the endpoints of a 2-path whose edges cross every edge of some
     odd cycle.

Any geometric homomorphism therefore induces a proper coloring of the graph
on these forced pairs, so its chromatic number lower-bounds X.

C and D rest on one side-of-line fact, so both are exact at any length: an
edge that crosses e has one endpoint strictly on each side of e's line, so the
edges crossed by e form a bipartite graph whose sides are the sides of that
line. Two of its vertices are joined by an odd path exactly when they lie in
one component on opposite sides (a shortest path between them is simple).
For D, the edges crossed by a 2-path contain an odd cycle exactly when that
union is not bipartite, which needs both of its edges crossed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .graphs import Edge, GeometricGraph, _adj_lists, crossings_of
from .search import chromatic_number


@dataclass(frozen=True)
class DistinctnessGraph:
    n: int
    forced_pairs: frozenset[Edge]
    provenance: Mapping[Edge, frozenset[str]]

    def lower_bound(self) -> int:
        """Chromatic number of the forced-pair graph; always <= X(G-bar). Computed once."""
        return self._chi

    @cached_property
    def _chi(self) -> int:
        return chromatic_number((self.n, self.forced_pairs))[0]


def _two_coloring(n: int, edges: set[Edge]) -> tuple[list[tuple[int, int] | None], bool]:
    """BFS two-coloring of `edges` on vertices 0..n-1.

    Returns (component, side) for each vertex on an edge (None elsewhere) and
    whether some edge joins two vertices of one side, i.e. an odd cycle.
    """
    adj = _adj_lists(n, edges)
    label: list[tuple[int, int] | None] = [None] * n
    odd = False
    for start in range(n):
        if label[start] is not None or not adj[start]:
            continue
        label[start] = (start, 0)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            side = label[v][1]
            for w in adj[v]:
                if label[w] is None:
                    label[w] = (start, side ^ 1)
                    queue.append(w)
                elif label[w][1] == side:
                    odd = True
    return label, odd


_MEMO_KEY = "_distinctness"


def non_identifiable_pairs(G: GeometricGraph) -> DistinctnessGraph:
    """All vertex pairs rules A-D force apart, with per-pair rule provenance.

    Computed once per graph and kept in the graph's own __dict__, where
    cached_property keeps its crossings, so it lives exactly as long as the
    graph and every caller shares one read-only result.
    """
    memo = vars(G)
    if _MEMO_KEY not in memo:
        memo[_MEMO_KEY] = _distinctness_graph(G)
    return memo[_MEMO_KEY]


def _distinctness_graph(G: GeometricGraph) -> DistinctnessGraph:
    tags: dict[Edge, set[str]] = {}

    def add(pair: Edge, tag: str) -> None:
        tags.setdefault(pair, set()).add(tag)

    for e in G.edges:
        add(e, "A")

    crossed_by: dict[Edge, set[Edge]] = {}
    for c in crossings_of(G):
        for a, b in combinations(sorted(c.vertices), 2):
            add((a, b), "B")
        crossed_by.setdefault(c.e1, set()).add(c.e2)
        crossed_by.setdefault(c.e2, set()).add(c.e1)

    for crossed in crossed_by.values():
        label, _ = _two_coloring(G.n, crossed)  # bipartite by the side-of-line fact
        on = [v for v in range(G.n) if label[v] is not None]
        for u, v in combinations(on, 2):
            if label[u][0] == label[v][0] and label[u][1] != label[v][1]:
                add((u, v), "C")

    adj = _adj_lists(G.n, G.edges)
    for w in range(G.n):
        for u, v in combinations(sorted(adj[w]), 2):
            q1 = crossed_by.get((min(u, w), max(u, w)))
            q2 = crossed_by.get((min(v, w), max(v, w)))
            if q1 and q2 and _two_coloring(G.n, q1 | q2)[1]:
                add((u, v), "D")

    return DistinctnessGraph(
        n=G.n,
        forced_pairs=frozenset(tags),
        provenance=MappingProxyType({pair: frozenset(ts) for pair, ts in tags.items()}),
    )


def geochromatic_lower_bound(G: GeometricGraph) -> int:
    """Chromatic number of the forced-pair graph; always <= X(G-bar)."""
    return non_identifiable_pairs(G).lower_bound()
