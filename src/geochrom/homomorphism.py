"""Homomorphism verifiers and exact solvers for chi, X and X'.

Vertex maps are verified, never trusted: every solver result can be replayed
through the verifiers here. Each reads adjacency and crossings only, so each
reads a crossing structure, a drawing's own for a drawing (graphs._structure).
The searches run on the core in search.py: chi and X' (chi of obstruction
rows A and B) its chi search, find_geometric_hom its geometric-hom search,
which the catalog's dominance test shares, and X is the least n at which
find_geometric_hom succeeds into a cataloged K_n.
"""

from __future__ import annotations

from typing import Iterator

from .catalog import MAX_CATALOG_N, CatalogEntry, CatalogStore, CliqueCatalog
from .errors import _Record
from .graphs import CrossingStructure, _structure
from .obstructions import non_identifiable_pairs
from .search import Coloring, _chromatic, _find_hom


class VertexMap(_Record):
    """A candidate homomorphism: images[v] is the target id of source vertex v."""

    _fields = ("images", "target_size")
    images: tuple[int, ...]
    target_size: int

    def __init__(self, images: tuple[int, ...], target_size: int) -> None:
        for img in images:
            if not 0 <= img < target_size:
                raise ValueError(f"image {img} outside target 0..{target_size - 1}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "target_size", target_size)

    @property
    def source_size(self) -> int:
        return len(self.images)

    def compose(self, outer: "VertexMap") -> "VertexMap":
        """outer after self (apply self first, then outer)."""
        if outer.source_size != self.target_size:
            raise ValueError("composition size mismatch")
        return VertexMap(tuple(outer.images[i] for i in self.images), outer.target_size)


def is_graph_hom(G: CrossingStructure, H: CrossingStructure, f: VertexMap) -> bool:
    """True iff f maps every edge of G onto an edge of H (endpoints distinct); either may be (n, edges)."""
    G, H = _structure(G), _structure(H)
    images = f.images
    if len(images) != G.n or f.target_size != H.n:
        return False
    for u, v in G.adjacency:
        a, b = images[u], images[v]
        if a == b or ((a, b) if a < b else (b, a)) not in H.adjacency:
            return False
    return True


def is_geometric_hom(G: CrossingStructure, H: CrossingStructure, f: VertexMap) -> bool:
    """True iff f preserves adjacency and maps every crossing onto a crossing."""
    G, H = _structure(G), _structure(H)
    if not is_graph_hom(G, H, f):
        return False
    # A graph hom sends each edge onto an edge, and every target crossing is
    # a pair of disjoint edges, so membership alone decides each crossing.
    target_crossings, images = H.crossings, f.images
    for (a, b), (c, d) in G.crossings:
        s, t, u, x = images[a], images[b], images[c], images[d]
        e1 = (s, t) if s < t else (t, s)
        e2 = (u, x) if u < x else (x, u)
        if ((e1, e2) if e1 < e2 else (e2, e1)) not in target_crossings:
            return False
    return True


def chromatic_number(G: CrossingStructure) -> tuple[int, Coloring]:
    """Exact chi with a proper witness coloring using exactly chi colors.

    It reads the cached neighbour rows of a structure or a drawing's; an (n, edges) graph builds them on each call.
    """
    return _chromatic(_structure(G).neighbour_rows, 0)


def is_proper(G: CrossingStructure, coloring: Coloring) -> bool:
    G = _structure(G)
    colors = coloring.colors
    if len(colors) != G.n:
        return False
    for u, v in G.adjacency:
        if colors[u] == colors[v]:
            return False
    return True


def is_pseudo_coloring(G: CrossingStructure, coloring: Coloring) -> bool:
    """Proper on edges and 4 distinct colors on every crossing quadruple."""
    G = _structure(G)
    if not is_proper(G, coloring):
        return False
    colors = coloring.colors
    for (a, b), (c, d) in G.crossings:
        if len({colors[a], colors[b], colors[c], colors[d]}) != 4:
            return False
    return True


# --- geometric homomorphism search ------------------------------------------


def find_geometric_hom(G: CrossingStructure, target: CrossingStructure) -> VertexMap | None:
    """First verified geometric homomorphism G -> target, or None.

    search._find_hom from G over the whole target, keeping apart the vertices
    the obstruction rules force apart. The search reads the views their
    structures keep, and non_identifiable_pairs keeps the rows of those vertices
    on G's, so each is built once per graph and repeated searches share them.
    """
    G, target = _structure(G), _structure(target)
    images = _find_hom(G, target, non_identifiable_pairs(G)._apart, [(1 << target.n) - 1] * G.n)
    if images is None:
        return None
    vm = VertexMap(tuple(images), target.n)
    if not is_geometric_hom(G, target, vm):
        raise RuntimeError(f"the search returned {vm.images}, which is not a geometric homomorphism")
    return vm


class XResult(_Record):
    """A resolved geochromatic number with its verified witness."""

    _fields = ("n", "target", "witness")
    n: int
    target: CrossingStructure
    witness: VertexMap

    def __init__(self, n: int, target: CrossingStructure, witness: VertexMap) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "witness", witness)


def _targets(cat: CliqueCatalog) -> Iterator[CatalogEntry]:
    """cat.maximal, the convex K_n first, which is tried before the view is computed.

    The convex K_n heads both the catalog and its maximal view, and it
    resolves most drawings that reach a size, so those never pay for the
    dominance tests (30-31 ms for the K7 view of the committed catalog).
    """
    yield cat.entries[0]
    yield from cat.maximal[1:]


def geochromatic_number(G: CrossingStructure, catalogs: CatalogStore, max_n: int = MAX_CATALOG_N) -> XResult | None:
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
    if not 0 <= max_n <= MAX_CATALOG_N:
        raise ValueError(f"max_n must be in 0..{MAX_CATALOG_N}, got {max_n}")
    for n in range(non_identifiable_pairs(G).lower_bound(), max_n + 1):
        for entry in _targets(catalogs.get(n)):
            f = find_geometric_hom(G, entry.structure)
            if f is not None:
                return XResult(n=n, target=entry.structure, witness=f)
    return None


def pseudo_geochromatic_number(G: CrossingStructure) -> tuple[int, Coloring]:
    """Smallest n admitting a proper coloring with 4 distinct colors per crossing.

    The quadruple constraint is exactly six pairwise-distinctness constraints,
    so X' is chi of obstruction rules A and B, kept on the graph's forced-pair memo.
    """
    n, coloring = non_identifiable_pairs(G)._pseudo
    if not is_pseudo_coloring(G, coloring):
        raise RuntimeError(f"the search returned {coloring.colors}, which is not a pseudo-coloring")
    return n, coloring
