"""The search core: one forward-checking backtracker behind every exact search.

`_backtrack` maps vertices to values 0..k-1 one at a time, in an order the
caller picks, trying each vertex's values in ascending order. Every unmapped
vertex keeps an int bitmask of the values it may still take (forward
checking; Haralick and Elliott, "Increasing tree search efficiency for
constraint satisfaction problems", Artificial Intelligence 14, 1980).
Mapping v to t narrows:

  - each vertex the caller links to v, to the row its rule gives for t;
  - on a crossing vp x cd, once v and p are both mapped, c and d to the ends
    of the target edges that cross the image of vp, and once three of the
    four ends are mapped, the fourth to its exact completions.

A mask that empties backtracks at once. Narrowing removes only values that
no completion of the current partial map can take, so the search visits
the surviving branches in the same order and finds the same first map as
one that checks each value after writing it. The module sits below
catalog, obstructions and homomorphism. The callers and their rules:

  chromatic_number        DSATUR order (saturation is k minus the mask's
                          popcount), a greedy clique mapped first, edge ends
                          differ, first-fresh-color symmetry breaking (X' is
                          chi of rules A and B, every edge and crossing pair)
  find_geometric_hom      decreasing crossing degree; a neighbour narrows to
                          the target neighbours of t, a forced-apart vertex
                          (rules A-D) to everything but t, crossings by the
                          target's CrossingIndex
  find_noncollapsing_hom  degree plus crossing degree; a neighbour narrows to
                          everything but t, and the fourth end of a crossing
                          to any value that does not put both edges on one
                          color pair; symmetry breaking
  catalog._maps_into      the dominance test between two K_n: fewest candidate
                          images first, the candidates as initial masks; each
                          vertex narrows to the images other than t whose
                          edge to t is in at least as many crossings (so the
                          map is a bijection), crossings by the target's
                          CrossingIndex
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import CrossingIndex, CrossingStructure, Edge, GeometricGraph, _adj_lists


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
    return n, frozenset((u, v) if u < v else (v, u) for u, v in edges)


# links[v]: pairs (rows, ws); once v maps to t, each w in ws narrows to rows[t].
Links = Sequence[Sequence[tuple[Sequence[int], Sequence[int]]]]


def _backtrack(images: list[int], domains: list[int], pick: Callable[[int], int], links: Links,
               crossings_at: Sequence[Sequence[tuple[int, int, int]]], rule: CrossingIndex | None,
               symmetric: bool) -> bool:
    """Fill images, all -1 on entry, with values from domains[v], narrowing as the module says.

    pick(depth) names the vertex to map at that depth of the search, and may
    read images and domains, which hold the current state. With `symmetric`
    the values are interchangeable, so a vertex tries at most one value that
    no vertex holds yet. `rule` supplies the crossing narrowing for the
    triples of crossings_at (None when there are no crossings to keep).
    Returns True with images filled, or False with images and domains as
    given.
    """
    todo = len(images)
    ends, completions = (rule.ends, rule.completions) if rule is not None else ((), ())

    def narrow(v: int, t: int) -> bool:
        for rows, ws in links[v]:
            row = rows[t]
            for w in ws:
                if images[w] < 0:
                    m = domains[w] & row
                    if not m:
                        return False
                    domains[w] = m
        for p, c, d in crossings_at[v]:
            s = images[p]
            if s >= 0:  # vp is mapped onto ts
                u, x = images[c], images[d]
                if u < 0 and x < 0:
                    m = ends[t][s]
                    mc, md = domains[c] & m, domains[d] & m
                    if not (mc and md):
                        return False
                    domains[c], domains[d] = mc, md
                elif x < 0:
                    m = domains[d] & completions[t][s][u]
                    if not m:
                        return False
                    domains[d] = m
                elif u < 0:
                    m = domains[c] & completions[t][s][x]
                    if not m:
                        return False
                    domains[c] = m
            else:
                u, x = images[c], images[d]
                if u >= 0 and x >= 0:  # cd is mapped onto ux
                    m = domains[p] & completions[u][x][t]
                    if not m:
                        return False
                    domains[p] = m
        return True

    def extend(depth: int, used: int) -> bool:
        if depth == todo:
            return True
        v = pick(depth)
        options = domains[v] & ((2 << used) - 1) if symmetric else domains[v]
        saved = domains[:]
        while options:
            low = options & -options
            options ^= low
            t = low.bit_length() - 1
            images[v] = t
            if narrow(v, t) and extend(depth + 1, max(used, t + 1)):
                return True
            domains[:] = saved
        images[v] = -1
        return False

    return extend(0, 0)


# --- exact chromatic number -------------------------------------------------


def _greedy_clique(adj: Sequence[set[int]]) -> list[int]:
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    common = (1 << n) - 1  # bit v: v is adjacent to every clique vertex so far
    for v in order:
        if common >> v & 1:
            clique.append(v)
            common &= sum(1 << w for w in adj[v])
    return clique


def _dsatur_greedy(adj: Sequence[set[int]]) -> list[int]:
    """DSATUR (Brelaz, Comm. ACM 22, 1979): colors 1.. in order of saturation, then degree, then id.

    seen[v] has bit c set once a neighbour of v holds color c. An uncolored
    vertex ranks by the one int sat*n^2 + deg*n + (n-1-id), kept up to date
    as its saturation grows, and a colored one by -1, so the highest rank is
    the vertex the (saturation, degree, -id) order picks.
    """
    n = len(adj)
    colors = [0] * n
    seen = [0] * n
    rank = [len(nbrs) * n + n - 1 - v for v, nbrs in enumerate(adj)]
    n2 = n * n
    for _ in range(n):
        v = rank.index(max(rank))
        m = seen[v] | 1
        c = (~m & (m + 1)).bit_length() - 1  # the least color no neighbour holds
        colors[v] = c
        rank[v] = -1
        bit = 1 << c
        for w in adj[v]:
            if not seen[w] & bit:
                seen[w] |= bit
                if not colors[w]:
                    rank[w] += n2
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
    domains = [0] * n

    def pick(depth: int) -> int:
        if depth < len(clique):
            return clique[depth]
        return min((v for v in range(n) if images[v] < 0),
                   key=lambda v: (domains[v].bit_count(), -len(adj[v]), v))

    for k in range(len(clique), ub):
        full = (1 << k) - 1
        differ = [full ^ 1 << t for t in range(k)]
        links = [[(differ, adj[v])] for v in range(n)]
        domains[:] = [full] * n
        for i, v in enumerate(clique):
            domains[v] = 1 << i
        if _backtrack(images, domains, pick, links, [()] * n, None, symmetric=True):
            return k, Coloring(tuple(c + 1 for c in images), k)
    return ub, Coloring(tuple(greedy), ub)
