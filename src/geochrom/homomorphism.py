"""Exact solvers for chi, X and X'.

Vertex maps and colorings are verified, never trusted: every solver result
can be replayed through the checks in verify.py, and find_geometric_hom (so
X too) and X' replay theirs before returning. The searches read a crossing
structure, a drawing's own for a drawing (graphs._structure), and run on the
core in search.py: chi and X' (chi of obstruction rows A and B) its chi
search, find_geometric_hom its geometric-hom search, which the catalog's
dominance test shares, and X is the least n at which find_geometric_hom
succeeds into a cataloged K_n.
"""

from __future__ import annotations

from typing import Iterator

from .catalog import MAX_CATALOG_N, CatalogEntry, CatalogStore, CliqueCatalog
from .errors import _Record
from .graphs import CrossingStructure, _structure
from .obstructions import non_identifiable_pairs
from .search import _chromatic, _find_hom

# All four checks stay bound here, the two this module does not call too: the benchmark's tracer looks each up
# by the name homomorphism.<check> and wraps it wherever the package holds it.
from .verify import Coloring, VertexMap, is_geometric_hom, is_graph_hom, is_proper, is_pseudo_coloring  # noqa: F401


def chromatic_number(G: CrossingStructure) -> tuple[int, Coloring]:
    """Exact chi with a proper witness coloring using exactly chi colors.

    It reads the cached neighbour rows of a structure or a drawing's; an (n, edges) graph builds them on each call.
    """
    return _chromatic(_structure(G).neighbour_rows, 0)


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
