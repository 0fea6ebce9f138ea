"""The trust base: the witness records and the definition-level checks that replay every result.

A geometric homomorphism is a vertex map that keeps every edge on an edge
and every crossing on a crossing; a coloring of G is proper when no edge has
one color on both ends, and a pseudo-coloring when, besides, each crossing's
four ends hold four colors. Every chi, X', bound, X and lift the package
reports carries a VertexMap or a Coloring that these checks accept or
refuse from the definitions alone. So this module imports only the graph
layer and errors, never a solver, a catalog or the obstruction rules whose
results it checks (McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms", Computer Science Review 5, 2011). Each check reads adjacency
and crossings only, so each reads a crossing structure, a drawing's own for
a drawing (graphs._structure).
"""

from __future__ import annotations

from .errors import _Record
from .graphs import CrossingStructure, _structure


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
