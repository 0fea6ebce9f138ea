"""Homomorphism verifiers and exact solvers for chi, X and X'.

Vertex maps are verified, never trusted: every solver result can be replayed
through the verifiers here.

Every exact search in the package runs on one depth-first core, `_backtrack`:
it maps vertices into 0..k-1 one at a time, in an order the caller picks, and
a check built by `_fits` rejects a value that breaks the caller's edge rule
or, once a crossing's four ends are mapped, its crossing rule. The callers:

  chromatic_number        DSATUR order, a greedy clique precolored, the ends
                          of an edge differ, first-fresh-color symmetry
                          breaking; X' is chi of the graph plus the six
                          vertex pairs of every crossing
  find_geometric_hom      decreasing crossing degree; an edge lands on a
                          target edge, a crossing on a target crossing, and
                          pairs the obstruction rules force apart differ
  find_noncollapsing_hom  (lifts.py) decreasing degree plus crossing degree;
                          the ends of an edge differ, no crossing lands on a
                          single color pair, symmetry breaking as for chi
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .catalog import MAX_CATALOG_N, CatalogEntry, CatalogStore, CliqueCatalog
from .graphs import (
    CrossingStructure,
    Edge,
    GeometricGraph,
    _adj_lists,
    crossings_of,
)


@dataclass(frozen=True)
class VertexMap:
    """A candidate homomorphism: images[v] is the target id of source vertex v."""

    images: tuple[int, ...]
    target_size: int

    def __post_init__(self) -> None:
        for img in self.images:
            if not 0 <= img < self.target_size:
                raise ValueError(f"image {img} outside target 0..{self.target_size - 1}")

    @property
    def source_size(self) -> int:
        return len(self.images)

    def edge_image(self, e: Edge) -> tuple[int, int] | None:
        """Image of an edge as a sorted pair, or None if it collapses."""
        a, b = self.images[e[0]], self.images[e[1]]
        if a == b:
            return None
        return (a, b) if a < b else (b, a)

    def compose(self, outer: "VertexMap") -> "VertexMap":
        """outer after self (apply self first, then outer)."""
        if outer.source_size != self.target_size:
            raise ValueError("composition size mismatch")
        return VertexMap(tuple(outer.images[i] for i in self.images), outer.target_size)


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


def _crossing_pairs(h) -> frozenset[tuple[Edge, Edge]]:
    if isinstance(h, GeometricGraph):
        return frozenset(c.edges() for c in crossings_of(h))
    if isinstance(h, CrossingStructure):
        return h.crossings
    raise TypeError(f"no crossing relation on {type(h).__name__}")


def is_graph_hom(G, H, f: VertexMap) -> bool:
    """True iff f maps every edge of G onto an edge of H (endpoints distinct)."""
    n_g, edges_g = _as_abstract(G)
    n_h, edges_h = _as_abstract(H)
    if f.source_size != n_g or f.target_size != n_h:
        return False
    for e in edges_g:
        img = f.edge_image(e)
        if img is None or img not in edges_h:
            return False
    return True


def is_geometric_hom(G: GeometricGraph, H, f: VertexMap) -> bool:
    """True iff f preserves adjacency and maps every crossing onto a crossing."""
    if not is_graph_hom(G, H, f):
        return False
    target_crossings = _crossing_pairs(H)
    for c in crossings_of(G):
        img1 = f.edge_image(c.e1)
        img2 = f.edge_image(c.e2)
        if img1 is None or img2 is None:
            return False
        if set(img1) & set(img2):
            return False
        pair = (img1, img2) if img1 < img2 else (img2, img1)
        if pair not in target_crossings:
            return False
    return True


def is_proper(G, coloring: Coloring) -> bool:
    n, edges = _as_abstract(G)
    if len(coloring.colors) != n:
        return False
    return all(coloring.colors[u] != coloring.colors[v] for u, v in edges)


def is_pseudo_coloring(G: GeometricGraph, coloring: Coloring) -> bool:
    """Proper on edges and 4 distinct colors on every crossing quadruple."""
    if not is_proper(G, coloring):
        return False
    for c in crossings_of(G):
        if len({coloring.colors[v] for v in c.vertices}) != 4:
            return False
    return True


# --- the search core --------------------------------------------------------


def _crossings_at(G: GeometricGraph) -> list[list[tuple[Edge, Edge]]]:
    """For each vertex, the edge pairs of the crossings it lies on."""
    at: list[list[tuple[Edge, Edge]]] = [[] for _ in range(G.n)]
    for c in crossings_of(G):
        for v in c.vertices:
            at[v].append(c.edges())
    return at


def _fits(images: list[int], adj: Sequence[set[int]], crossings_at: Sequence[Sequence[tuple[Edge, Edge]]],
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
        for (a, b), (c, d) in crossings_at[v]:
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


# --- geometric homomorphism search ------------------------------------------


def find_geometric_hom(G: GeometricGraph, target) -> VertexMap | None:
    """First verified geometric homomorphism G -> target, or None.

    Searches source vertices in decreasing crossing-degree order. Every edge
    must land on a target edge, every crossing on a target crossing, and the
    pairs that the obstruction rules force apart on distinct vertices.
    """
    from .obstructions import non_identifiable_pairs  # cycle-breaking import

    return _find_hom(G, target, non_identifiable_pairs(G).forced_pairs)


def _find_hom(G: GeometricGraph, target, forced_pairs: frozenset[Edge]) -> VertexMap | None:
    """find_geometric_hom with the forced pairs of G already computed."""
    t_n, t_adj = _as_abstract(target)
    t_cross = _crossing_pairs(target)
    n = G.n
    crossings_at = _crossings_at(G)
    apart = _adj_lists(n, forced_pairs - G.edges)  # edge_ok covers edges
    order = sorted(range(n), key=lambda v: (-len(crossings_at[v]), v))
    images = [-1] * n

    def edge_ok(t: int, s: int) -> bool:
        return ((t, s) if t < s else (s, t)) in t_adj

    def cross_ok(a: int, b: int, c: int, d: int) -> bool:
        f1 = (a, b) if a < b else (b, a)
        f2 = (c, d) if c < d else (d, c)
        return ((f1, f2) if f1 < f2 else (f2, f1)) in t_cross

    maps_graph = _fits(images, _adj_lists(n, G.edges), crossings_at, edge_ok, cross_ok)

    def fits(v: int) -> bool:
        return images[v] not in map(images.__getitem__, apart[v]) and maps_graph(v)

    if _backtrack(images, t_n, order.__getitem__, fits, symmetric=False):
        vm = VertexMap(tuple(images), t_n)
        assert is_geometric_hom(G, target, vm)
        return vm
    return None


@dataclass(frozen=True)
class XResult:
    """A resolved geochromatic number with its verified witness."""

    n: int
    target: CrossingStructure
    witness: VertexMap


def _targets(cat: CliqueCatalog) -> Iterator[CatalogEntry]:
    """cat.maximal, the convex K_n first, which is tried before the view is computed.

    The convex K_n heads both the catalog and its maximal view, and it
    resolves most drawings that reach a size, so those never pay for the
    dominance tests (about 0.1 s for K7).
    """
    yield cat.entries[0]
    yield from cat.maximal[1:]


def geochromatic_number(G: GeometricGraph, catalogs: CatalogStore, max_n: int = MAX_CATALOG_N) -> XResult | None:
    """Smallest n <= max_n with a geometric homomorphism into some K_n structure.

    Returns None (unresolved) when no cataloged target up to max_n admits one;
    never guesses. Search ascends n starting from the obstruction lower bound
    (sound: the bound never exceeds X). Within each n it tries only the
    maximal structures of the catalog, convex first: homomorphisms compose,
    so a drawing that maps into a structure also maps into every structure
    that one maps into, and a dominated target can never be the first to
    succeed. The value of X is the same as over every entry; the reported
    target may be a dominating structure. The forced pairs behind the bound
    are computed once per graph and reused by every search.
    """
    from .obstructions import non_identifiable_pairs  # cycle-breaking import

    if not 1 <= max_n <= MAX_CATALOG_N:
        raise ValueError(f"max_n must be in 1..{MAX_CATALOG_N}, got {max_n}")
    dg = non_identifiable_pairs(G)
    low = max(1, dg.lower_bound())
    for n in range(low, max_n + 1):
        for entry in _targets(catalogs.get(n)):
            f = _find_hom(G, entry.structure, dg.forced_pairs)
            if f is not None:
                return XResult(n=n, target=entry.structure, witness=f)
    return None


def pseudo_geochromatic_number(G: GeometricGraph) -> tuple[int, Coloring]:
    """Smallest n admitting a proper coloring with 4 distinct colors per crossing.

    The quadruple constraint is exactly six pairwise-distinctness constraints,
    so X' is the chromatic number of the graph augmented with those pairs.
    """
    extra: set[Edge] = set(G.edges)
    for c in crossings_of(G):
        vs = sorted(c.vertices)
        for i in range(4):
            for j in range(i + 1, 4):
                extra.add((vs[i], vs[j]))
    n, coloring = chromatic_number((G.n, extra))
    assert is_pseudo_coloring(G, coloring)
    return n, coloring
