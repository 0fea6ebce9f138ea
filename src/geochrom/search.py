"""The search core: one forward-checking backtracker behind every exact search.

`_backtrack` maps vertices to values 0..k-1 one at a time, in an order the
caller picks, trying each vertex's values in ascending order. Every unmapped
vertex keeps an int bitmask of the values it may still take (forward
checking; Haralick and Elliott, "Increasing tree search efficiency for
constraint satisfaction problems", Artificial Intelligence 14, 1980).
The source is held as int rows too: bit w of adj[v] for each edge vw, bit w
of apart[v] for each vertex kept off v's image, with the crossings at v as
crossing_partners triples. The search keeps the unmapped vertices as one
mask, free, so a row narrows only its unmapped members, row & free (bitset
search as in San Segundo, Rodriguez-Losada and Jimenez, "An exact
bit-parallel algorithm for the maximum clique problem", Computers &
Operations Research 38, 2011). Every target is one edge set plus one
crossing set, held as the CrossingIndex that graphs._crossing_index builds
of them. Mapping v to t narrows, by the target's CrossingIndex:

  - each unmapped neighbour of v to the target neighbours of t, and each
    unmapped vertex kept apart from v to every value but t;
  - on a crossing vp x cd, once v and p are both mapped, c and d to the ends
    of the target edges that cross the image of vp, and once three of the
    four ends are mapped, the fourth to its exact completions.

A mask that empties backtracks at once. Narrowing removes only values that
no completion of the current partial map can take, so the search visits
the surviving branches in the same order and finds the same first map as
one that checks each value after writing it. `_backtrack` owns the map
and the domains it narrows, and returns the first map or None. The module
sits below catalog, obstructions and homomorphism. The callers, their
sources and targets (a structure, a drawing's own, is handed over whole,
and its search views are read here), and what each adds:

  _chromatic      rows of the graph to color (a drawing's edges for chi, the
                  forced-pair rows A|B for X' and A|B|C|D for the lower
                  bound, read as they are), nothing apart; the edges of
                  K_k and no crossings, built once per k (_complete). The
                  greedy clique and DSATUR run on the rows, and when the
                  clique, the floor or, once DSATUR uses a third color, 3
                  already reaches the DSATUR count no search is set up.
                  Otherwise DSATUR order (saturation is k minus the mask's
                  popcount), the clique mapped first, first-fresh-color
                  symmetry breaking, counts from the greatest of the
                  three up: the floor is 0 for chi and X', X' for the
                  lower bound
  _find_hom       a structure; a structure;
                  fewest starting images, then decreasing crossing degree;
                  find_geometric_hom starts on the whole target with the
                  rows (B|C|D) & ~A of rules A-D apart, catalog._maps_into
                  (the dominance test between two K_n) on candidate images
                  with none apart
  _noncollapsing  a structure, nothing apart; K_k in which every two distinct
                  edges cross: the edges of K_k and every pair of them,
                  built once per k (_all_crossing). So the ends narrow
                  nothing, and a completion bars the value that puts both
                  edges on one color pair and the one adjacency has
                  already removed; degree plus crossing degree, symmetry
                  breaking
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .errors import _Record
from .graphs import CrossingIndex, _crossing_index


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


def _backtrack(start: Sequence[int], pick: Callable[[int, list[int], list[int]], int], adj: Sequence[int],
               apart: Sequence[int], crossings_at: Sequence[Sequence[tuple[int, int, int]]],
               target: CrossingIndex, symmetric: bool) -> list[int] | None:
    """The first map sending each vertex v into start[v], narrowing as the module says, or None.

    The search owns its state: the map, images (-1 while unmapped), and
    domains, a copy of start that narrowing shrinks. adj and apart are the
    source's rows, and `free` the mask of vertices not yet mapped.
    pick(depth, images, domains) names the vertex to map at that depth from
    the current state. With `symmetric` the values are interchangeable, so a
    vertex tries at most one value that no vertex holds yet.
    """
    todo = len(start)
    images = [-1] * todo
    domains = list(start)
    neighbours, ends, completions = target
    full = (1 << len(neighbours)) - 1

    def narrow(v: int, t: int, free: int) -> bool:
        for row, ws in ((neighbours[t], adj[v] & free), (full ^ 1 << t, apart[v] & free)):
            while ws:
                low = ws & -ws
                ws ^= low
                w = low.bit_length() - 1
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

    def extend(depth: int, used: int, free: int) -> bool:
        if depth == todo:
            return True
        v = pick(depth, images, domains)
        free ^= 1 << v
        options = domains[v] & ((2 << used) - 1) if symmetric else domains[v]
        saved = domains[:]
        while options:
            low = options & -options
            options ^= low
            t = low.bit_length() - 1
            images[v] = t
            if narrow(v, t, free) and extend(depth + 1, max(used, t + 1), free):
                return True
            domains[:] = saved
        images[v] = -1
        return False

    return images if extend(0, 0, (1 << todo) - 1) else None


def _find_hom(source, target, apart: Sequence[int], start: Sequence[int]) -> list[int] | None:
    """The first map of source into target keeping edges on edges and crossings on crossings, or None.

    It reads the source's neighbour_rows and crossing_partners and the
    target's crossing_index. apart[v] holds the vertices kept off v's image,
    as a row like the neighbour rows, and start[v] the images v starts from.
    """
    crossings_at = source.crossing_partners
    order = sorted(range(len(start)), key=lambda v: (start[v].bit_count(), -len(crossings_at[v]), v))
    return _backtrack(start, lambda depth, images, domains: order[depth], source.neighbour_rows, apart, crossings_at,
                      target.crossing_index, symmetric=False)


@lru_cache(maxsize=None)
def _complete(k: int) -> CrossingIndex:
    """K_k with no crossings, the target of the chi search."""
    return _crossing_index(k, combinations(range(k), 2), ())


@lru_cache(maxsize=8)
def _all_crossing(k: int) -> CrossingIndex:
    """K_k in which every two distinct edges cross, the target of the non-collapsing search.

    It holds k^3 masks, so only a few sizes are kept: the lifts ask for chi
    and chi + 1 colors.
    """
    edges = list(combinations(range(k), 2))
    return _crossing_index(k, edges, combinations(edges, 2))


def _noncollapsing(source, k: int) -> list[int] | None:
    """The first proper k-coloring, up to color permutation, with no crossing's edges on one color pair, or None."""
    adj, crossings_at = source.neighbour_rows, source.crossing_partners
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-(adj[v].bit_count() + len(crossings_at[v])), v))
    return _backtrack([(1 << k) - 1] * n, lambda depth, images, domains: order[depth], adj, [0] * n, crossings_at,
                      _all_crossing(k), symmetric=True)  # no vertices apart


# --- exact chromatic number -------------------------------------------------


def _greedy_clique(adj: Sequence[int]) -> list[int]:
    """Vertices by decreasing degree, then id, each kept when adjacent to every vertex kept before it."""
    clique: list[int] = []
    common = (1 << len(adj)) - 1  # bit v: v is adjacent to every clique vertex so far
    for v in sorted(range(len(adj)), key=lambda v: -adj[v].bit_count()):  # stable: ties by id
        if common >> v & 1:
            clique.append(v)
            common &= adj[v]
            if not common:
                break
    return clique


def _dsatur_greedy(adj: Sequence[int]) -> list[int]:
    """DSATUR (Brelaz, Comm. ACM 22, 1979): colors 1.. in order of saturation, then degree, then id.

    seen[v] has bit c set once a neighbour of v holds color c. An uncolored
    vertex ranks by the one int sat*n^2 + deg*n + (n-1-id), kept up to date
    as its saturation grows, and a colored one by -1, so the highest rank is
    the vertex the (saturation, degree, -id) order picks. Coloring v updates
    only its uncolored neighbours, whose ranks are still read.
    """
    n = len(adj)
    colors = [0] * n
    seen = [0] * n
    rank = [row.bit_count() * n + n - 1 - v for v, row in enumerate(adj)]
    n2 = n * n
    uncolored = (1 << n) - 1
    for _ in range(n):
        v = rank.index(max(rank))
        m = seen[v] | 1
        c = (~m & (m + 1)).bit_length() - 1  # the least color no neighbour holds
        colors[v] = c
        rank[v] = -1
        uncolored ^= 1 << v
        bit = 1 << c
        ws = adj[v] & uncolored
        while ws:
            low = ws & -ws
            ws ^= low
            w = low.bit_length() - 1
            if not seen[w] & bit:
                seen[w] |= bit
                rank[w] += n2
    return colors


def _chromatic(adj: Sequence[int], floor: int) -> tuple[int, Coloring]:
    """chi and its coloring for neighbour rows adj; floor, a lower bound, skips counts that would fail.

    DSATUR two-colors every bipartite graph (Brelaz 1979). A vertex beside a
    colored one outranks every other, so DSATUR finishes one component before
    it starts the next, and each vertex it colors beside a colored one sees
    one color, that of the other side. So a DSATUR count of 3 or more proves
    chi >= 3. That, the clique and the floor give the least count searched,
    and when it already reaches the DSATUR count, that coloring is optimal
    and no search is set up.
    """
    greedy = _dsatur_greedy(adj)
    ub = max(greedy, default=0)
    clique = _greedy_clique(adj)
    least = max(len(clique), floor, min(ub, 3))
    if least >= ub:
        return ub, Coloring(tuple(greedy), ub)
    n = len(adj)
    degree = [row.bit_count() for row in adj]
    seat = {v: 1 << i for i, v in enumerate(clique)}  # the clique's vertices start on colors 0, 1, ... in turn

    def pick(depth: int, images: list[int], domains: list[int]) -> int:
        if depth < len(clique):
            return clique[depth]
        return min((v for v in range(n) if images[v] < 0), key=lambda v: (domains[v].bit_count(), -degree[v], v))

    none = [0] * n  # no vertices apart
    no_crossings = [()] * n
    for k in range(least, ub):
        start = [seat.get(v, (1 << k) - 1) for v in range(n)]
        images = _backtrack(start, pick, adj, none, no_crossings, _complete(k), symmetric=True)
        if images is not None:
            return k, Coloring(tuple(c + 1 for c in images), k)
    return ub, Coloring(tuple(greedy), ub)
