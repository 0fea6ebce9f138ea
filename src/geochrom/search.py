"""The search core: one forward-checking backtracker behind every exact search.

`_backtrack` maps vertices to values 0..k-1 one at a time, in an order the
caller picks, trying each vertex's values in ascending order. Every unmapped
vertex keeps an int bitmask of the values it may still take (forward
checking; Haralick and Elliott, "Increasing tree search efficiency for
constraint satisfaction problems", Artificial Intelligence 14, 1980).
Mapping v to t narrows, by the target's CrossingIndex:

  - each neighbour of v to the target neighbours of t, and each vertex kept
    apart from v to every value but t;
  - on a crossing vp x cd, once v and p are both mapped, c and d to the ends
    of the target edges that cross the image of vp, and once three of the
    four ends are mapped, the fourth to its exact completions.

A mask that empties backtracks at once. Narrowing removes only values that
no completion of the current partial map can take, so the search visits
the surviving branches in the same order and finds the same first map as
one that checks each value after writing it. The module sits below
catalog, obstructions and homomorphism. The callers, their targets and
what each adds:

  _chromatic      K_k with no crossings; DSATUR order (saturation is k minus
                  the mask's popcount), a greedy clique mapped first,
                  first-fresh-color symmetry breaking, counts from a floor
                  up: 0 for chi and X' (obstruction rows A and B), X' for
                  the lower bound (all four rows)
  _find_hom       a drawing or structure; fewest starting images, then
                  decreasing crossing degree; find_geometric_hom starts on
                  the whole target with the pairs of rules A-D apart,
                  catalog._maps_into (the dominance test between two K_n) on
                  candidate images with none apart
  _noncollapsing  K_k with every disjoint edge pair crossing, so the ends
                  narrow nothing and a completion bars only the value that
                  puts both edges on one color pair; degree plus crossing
                  degree, symmetry breaking
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Collection, Sequence

from .errors import _Record
from .graphs import CrossingIndex


class Coloring(_Record):
    """A map V -> {1..n}; doubles as the alpha input of the lifting methods."""

    _fields = ("colors", "n")
    colors: tuple[int, ...]
    n: int

    def __init__(self, colors: tuple[int, ...], n: int) -> None:
        for c in colors:
            if not 1 <= c <= n:
                raise ValueError(f"color {c} outside 1..{n}")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "n", n)


def _backtrack(images: list[int], domains: list[int], pick: Callable[[int], int], adj: Sequence[Collection[int]],
               apart: Sequence[Collection[int]], crossings_at: Sequence[Sequence[tuple[int, int, int]]],
               target: CrossingIndex, symmetric: bool) -> bool:
    """Fill images, all -1 on entry, with values from domains[v], narrowing as the module says.

    pick(depth) names the vertex to map at that depth of the search, and may
    read images and domains, which hold the current state. With `symmetric`
    the values are interchangeable, so a vertex tries at most one value that
    no vertex holds yet. Returns True with images filled, or False with
    images and domains as given.
    """
    todo = len(images)
    neighbours, ends, completions = target
    full = (1 << len(neighbours)) - 1

    def narrow(v: int, t: int) -> bool:
        for row, ws in ((neighbours[t], adj[v]), (full ^ 1 << t, apart[v])):
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


def _find_hom(adj: Sequence[Collection[int]], crossings_at: Sequence[Sequence[tuple[int, int, int]]],
              apart: Sequence[Collection[int]], target: CrossingIndex, domains: list[int]) -> list[int] | None:
    """The first map of 0..n-1 into target keeping edges on edges and crossings on crossings, or None.

    adj and crossings_at hold the source's edges and crossings, apart[v] the
    vertices kept off v's image, and domains[v] the images v starts from.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (domains[v].bit_count(), -len(crossings_at[v]), v))
    images = [-1] * n
    if _backtrack(images, domains, order.__getitem__, adj, apart, crossings_at, target, symmetric=False):
        return images
    return None


def _noncollapsing(adj: Sequence[Collection[int]], crossings_at: Sequence[Sequence[tuple[int, int, int]]],
                   k: int) -> list[int] | None:
    """The first proper k-coloring, up to color permutation, with no crossing's edges on one color pair, or None."""
    n = len(adj)
    full = (1 << k) - 1
    completions = [[[full] * k for _ in range(k)] for _ in range(k)]
    for s, t in permutations(range(k), 2):
        completions[s][t][s] = full ^ 1 << t
        completions[s][t][t] = full ^ 1 << s
    target = CrossingIndex([full ^ 1 << t for t in range(k)], [[full] * k] * k, completions)
    order = sorted(range(n), key=lambda v: (-(len(adj[v]) + len(crossings_at[v])), v))
    images = [-1] * n
    if _backtrack(images, [full] * n, order.__getitem__, adj, [()] * n, crossings_at, target, symmetric=True):
        return images
    return None


# --- exact chromatic number -------------------------------------------------


def _greedy_clique(adj: Sequence[Collection[int]]) -> list[int]:
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    common = (1 << n) - 1  # bit v: v is adjacent to every clique vertex so far
    for v in order:
        if common >> v & 1:
            clique.append(v)
            common &= sum(1 << w for w in adj[v])
    return clique


def _dsatur_greedy(adj: Sequence[Collection[int]]) -> list[int]:
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


def _chromatic(adj: Sequence[Collection[int]], floor: int) -> tuple[int, Coloring]:
    """chi and its coloring for neighbours adj; floor, a lower bound, skips counts that would fail."""
    n = len(adj)
    clique = _greedy_clique(adj)
    greedy = _dsatur_greedy(adj)
    ub = max(greedy, default=0)
    images = [-1] * n
    domains = [0] * n

    def pick(depth: int) -> int:
        if depth < len(clique):
            return clique[depth]
        return min((v for v in range(n) if images[v] < 0),
                   key=lambda v: (domains[v].bit_count(), -len(adj[v]), v))

    none = [()] * n  # no vertices apart, no crossings
    for k in range(max(len(clique), floor), ub):
        full = (1 << k) - 1
        domains[:] = [full] * n
        for i, v in enumerate(clique):
            domains[v] = 1 << i
        clique_k = CrossingIndex([full ^ 1 << t for t in range(k)], [], [])
        if _backtrack(images, domains, pick, adj, none, none, clique_k, symmetric=True):
            return k, Coloring(tuple(c + 1 for c in images), k)
    return ub, Coloring(tuple(greedy), ub)
