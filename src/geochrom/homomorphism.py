"""Homomorphism verifiers and exact solvers for chi, X and X'.

Vertex maps are verified, never trusted: every solver result can be replayed
through the verifiers here. The searches run on the core in search.py:
chi (X' is chi of rules A and B) and find_geometric_hom are two of its
callers, and X is the least n at which find_geometric_hom succeeds into a
cataloged K_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .catalog import MAX_CATALOG_N, CatalogEntry, CatalogStore, CliqueCatalog
from .graphs import CrossingStructure, Edge, GeometricGraph, _adj_lists, _crossing_partners, crossings_of
from .obstructions import non_identifiable_pairs
from .search import Coloring, _as_abstract, _backtrack, chromatic_number


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


def is_geometric_hom(G: GeometricGraph, H: GeometricGraph | CrossingStructure, f: VertexMap) -> bool:
    """True iff f preserves adjacency and maps every crossing onto a crossing."""
    if not is_graph_hom(G, H, f):
        return False
    target_crossings = H.crossings
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
    for (a, b), (c, d) in crossings_of(G):
        if len({coloring.colors[a], coloring.colors[b], coloring.colors[c], coloring.colors[d]}) != 4:
            return False
    return True


# --- geometric homomorphism search ------------------------------------------


def find_geometric_hom(G: GeometricGraph, target: GeometricGraph | CrossingStructure) -> VertexMap | None:
    """First verified geometric homomorphism G -> target, or None.

    Searches source vertices in decreasing crossing-degree order, each over
    its target vertices in ascending order. Mapping v to t narrows each
    unmapped neighbour of v to the target neighbours of t, each vertex that
    the obstruction rules force apart from v to the target vertices other
    than t, and the ends of the crossings at v as the target's crossing
    index allows: every crossing must land on a target crossing. The forced
    pairs are computed once per graph (non_identifiable_pairs keeps them on
    G) and the index once per target, so repeated searches share both.
    """
    index = target.crossing_index
    t_n, n = target.n, G.n
    full = (1 << t_n) - 1
    apart_rows = [full ^ 1 << t for t in range(t_n)]
    adj = _adj_lists(n, G.edges)
    apart = _adj_lists(n, non_identifiable_pairs(G).forced_pairs - G.edges)  # an edge's rule keeps its ends apart
    links = [[(index.neighbours, adj[v]), (apart_rows, apart[v])] for v in range(n)]
    crossings_at = _crossing_partners(n, G.crossings)
    order = sorted(range(n), key=lambda v: (-len(crossings_at[v]), v))
    images = [-1] * n
    if _backtrack(images, [full] * n, order.__getitem__, links, crossings_at, index, symmetric=False):
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
    if not 1 <= max_n <= MAX_CATALOG_N:
        raise ValueError(f"max_n must be in 1..{MAX_CATALOG_N}, got {max_n}")
    low = max(1, non_identifiable_pairs(G).lower_bound())
    for n in range(low, max_n + 1):
        for entry in _targets(catalogs.get(n)):
            f = find_geometric_hom(G, entry.structure)
            if f is not None:
                return XResult(n=n, target=entry.structure, witness=f)
    return None


def pseudo_geochromatic_number(G: GeometricGraph) -> tuple[int, Coloring]:
    """Smallest n admitting a proper coloring with 4 distinct colors per crossing.

    The quadruple constraint is exactly six pairwise-distinctness constraints,
    so X' is chi of obstruction rules A and B, read from the graph's forced-pair memo.
    """
    rules = non_identifiable_pairs(G).rules
    n, coloring = chromatic_number((G.n, rules["A"] | rules["B"]))
    assert is_pseudo_coloring(G, coloring)
    return n, coloring
