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

D reuses the two-colorings that C computes for the two edges. A two-coloring
of the union restricts, on each component of either bipartite graph, to that
component's own coloring or its flip, so the union is bipartite exactly when
the components can be flipped so that every vertex the two graphs share gets
one color from both. Each shared vertex ties the flip of its component in
one graph to the flip of its component in the other; the ties can be
inconsistent only around a cycle, so the union of two bipartite graphs has an
odd cycle only if they share at least two vertices. A parity union-find over
the components checks the ties.
"""

from __future__ import annotations

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


def _two_coloring(edges: set[Edge]) -> dict[int, tuple[int, int]]:
    """(component, side) for each vertex on an edge of a bipartite edge set.

    A component is named by the vertex its search started from, which has
    side 0.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    label: dict[int, tuple[int, int]] = {}
    for start in adj:
        if start in label:
            continue
        label[start] = (start, 0)
        stack = [start]
        while stack:
            v = stack.pop()
            side = label[v][1] ^ 1
            for w in adj[v]:
                if w not in label:
                    label[w] = (start, side)
                    stack.append(w)
    return label


def _union_has_odd_cycle(c1: dict[int, tuple[int, int]], c2: dict[int, tuple[int, int]]) -> bool:
    """Whether two bipartite graphs, given by their _two_coloring, have a non-bipartite union.

    Nodes are the components, those of c2 stored as ~id; parent[x] is
    (parent, parity), where parity 1 means x is flipped against its parent.
    """
    shared = c1.keys() & c2.keys()
    if len(shared) < 2:
        return False
    parent: dict[int, tuple[int, int]] = {}

    def find(x: int) -> tuple[int, int]:
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

    colorings: dict[Edge, dict[int, tuple[int, int]]] = {}
    for e, crossed in crossed_by.items():
        label = colorings[e] = _two_coloring(crossed)  # bipartite by the side-of-line fact
        for u, v in combinations(sorted(label), 2):
            if label[u][0] == label[v][0] and label[u][1] != label[v][1]:
                add((u, v), "C")

    adj = _adj_lists(G.n, G.edges)
    for w in range(G.n):
        crossed_at = [(u, colorings[e]) for u in sorted(adj[w]) if (e := (min(u, w), max(u, w))) in colorings]
        for (u, c1), (v, c2) in combinations(crossed_at, 2):
            if _union_has_odd_cycle(c1, c2):
                add((u, v), "D")

    return DistinctnessGraph(
        n=G.n,
        forced_pairs=frozenset(tags),
        provenance=MappingProxyType({pair: frozenset(ts) for pair, ts in tags.items()}),
    )


def geochromatic_lower_bound(G: GeometricGraph) -> int:
    """Chromatic number of the forced-pair graph; always <= X(G-bar)."""
    return non_identifiable_pairs(G).lower_bound()
