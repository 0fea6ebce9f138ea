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
on these forced pairs, so its chromatic number lower-bounds X. Rule C uses
bounded simple-path enumeration (exact up to the cap; missing pairs only
weaken the bound, never break it). Rule D is exact: an odd cycle inside the
covered edge set exists iff that subgraph is non-bipartite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .graphs import Edge, GeometricGraph, _adj_lists, crossings_of
from .homomorphism import chromatic_number


@dataclass(frozen=True)
class DistinctnessGraph:
    n: int
    forced_pairs: frozenset[Edge]
    provenance: Mapping[Edge, frozenset[str]]

    def lower_bound(self) -> int:
        """Chromatic number of the forced-pair graph; always <= X(G-bar)."""
        value, _ = chromatic_number((self.n, self.forced_pairs))
        return value


def _subgraph_has_odd_cycle(edges: set[Edge]) -> bool:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    side: dict[int, int] = {}
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in side:
                    side[w] = side[v] ^ 1
                    queue.append(w)
                elif side[w] == side[v]:
                    return True
    return False


def _odd_path_endpoints(edges: frozenset[Edge], cap: int) -> set[Edge]:
    """Endpoint pairs of simple paths of odd length <= cap inside `edges`."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    found: set[Edge] = set()

    def extend(start: int, v: int, visited: set[int], length: int) -> None:
        for w in adj[v]:
            if w in visited:
                continue
            nxt = length + 1
            if nxt % 2 == 1 and w != start:
                found.add((start, w) if start < w else (w, start))
            if nxt < cap:
                visited.add(w)
                extend(start, w, visited, nxt)
                visited.remove(w)

    for start in adj:
        extend(start, start, {start}, 0)
    return found


def non_identifiable_pairs(G: GeometricGraph, path_cap: int = 7) -> DistinctnessGraph:
    """All vertex pairs rules A-D force apart, with per-pair rule provenance."""
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

    for e, crossed in crossed_by.items():
        for pair in _odd_path_endpoints(frozenset(crossed), path_cap):
            add(pair, "C")

    adj = _adj_lists(G.n, G.edges)
    for w in range(G.n):
        for u, v in combinations(sorted(adj[w]), 2):
            q = crossed_by.get((min(u, w), max(u, w)), set()) | crossed_by.get(
                (min(v, w), max(v, w)), set()
            )
            if q and _subgraph_has_odd_cycle(set(q)):
                add((u, v), "D")

    return DistinctnessGraph(
        n=G.n,
        forced_pairs=frozenset(tags),
        provenance={pair: frozenset(ts) for pair, ts in tags.items()},
    )


def geochromatic_lower_bound(G: GeometricGraph, path_cap: int = 7) -> int:
    """Chromatic number of the forced-pair graph; always <= X(G-bar)."""
    return non_identifiable_pairs(G, path_cap).lower_bound()
