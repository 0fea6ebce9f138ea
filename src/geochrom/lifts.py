"""Constructive upper bounds: lift an abstract coloring to a geometric hom.

Four methods, each turning a proper coloring alpha of G into a verified
geometric homomorphism beta into a convex clique:

  lift_dist2                    crossings pairwise at distance >= 2, target n+2
  lift_independent_noncollapsing independent crossings, alpha collapses no
                                 crossing onto a single edge, target 2n
  lift_independent              independent crossings, target 3n
  lift_small_chi                independent crossings and n in {2,3}, target 2n

All four share one case analysis. A crossing's base labels are identical
(case 3), share one value that lies between the leaves (2a) or beyond both
(2b), or are four values that alternate (1), separate (1a) or nest (1b). The
case picks the vertices that move, each with its base label p; the method
says where they land: dist2 on the spare labels n+1, n+2 in turn, indep2n
and indep3n on the copy p+n, smallchi one step on, p+1. Only case 3 (indep2n
refuses, indep3n uses p2+n and p1+2n) and smallchi's vertex in 2a and in 2b
below both leaves depend on the method. The final map is verified once, end
to end, with is_geometric_hom; a failure there is a bug in this module, not a
property of the input, and raises loudly.
"""

from __future__ import annotations

from .catalog import convex_clique
from .errors import (
    ChiOutOfRange,
    CollapsedCrossingPair,
    CrossingsNotIndependent,
    DistanceTooSmall,
    LiftInternalError,
    NotProperColoring,
    _Record,
)
from .graphs import Crossing, CrossingStructure, GeometricGraph, _structure
from .search import _noncollapsing
from .verify import Coloring, VertexMap, is_geometric_hom, is_proper

Mod = tuple[int, int]  # (vertex id, hull label)


class LiftReport(_Record):
    _fields = ("method", "target_size", "beta", "case_log")
    method: str  # dist2 | indep2n | indep3n | smallchi
    target_size: int
    beta: VertexMap
    case_log: tuple[tuple[Crossing, str], ...]

    def __init__(self, method: str, target_size: int, beta: VertexMap,
                 case_log: tuple[tuple[Crossing, str], ...]) -> None:
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "case_log", case_log)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "target_size": self.target_size,
            "map": list(self.beta.images),
            "cases": [
                {"crossing": [list(c.e1), list(c.e2)], "case": tag}
                for c, tag in self.case_log
            ],
        }


def _vertex_with(lab: list[int], edge: tuple[int, int], value: int) -> int:
    u, v = edge
    if lab[u] == value:
        return u
    if lab[v] != value:
        raise LiftInternalError(f"label {value} is on neither end of edge {edge}")
    return v


def _land(method: str, n: int, moves: list[Mod]) -> list[Mod]:
    """Where each moved (vertex, base label p) lands, past the n labels in use."""
    if method == "dist2":
        return [(v, n + 1 + i) for i, (v, _) in enumerate(moves)]  # the spare labels, in turn
    step = 1 if method == "smallchi" else n  # one step on, or the label's copy
    return [(v, p + step) for v, p in moves]


def _dispatch(method: str, n: int, lab: list[int], cr: Crossing) -> tuple[str, list[Mod]]:
    """Case tag and label reassignments for one crossing.

    `lab` holds the base labels (alpha, or recoded alpha for smallchi); `n`
    is the label count they occupy, so spare hull room starts at n+1.
    """
    e1, e2 = cr.e1, cr.e2
    s1 = {lab[e1[0]], lab[e1[1]]}
    s2 = {lab[e2[0]], lab[e2[1]]}
    shared = s1 & s2

    if s1 == s2:
        p1, p2 = sorted(s1)
        u = _vertex_with(lab, e1, p1)
        v = _vertex_with(lab, e1, p2)
        y = _vertex_with(lab, e2, p1)
        x = _vertex_with(lab, e2, p2)
        if method == "indep2n":
            raise CollapsedCrossingPair(
                f"crossing {e1}x{e2} has both edges colored {sorted(s1)}; "
                "try find_noncollapsing_hom or lift_independent"
            )
        if method == "indep3n":
            return "3", [(x, p2 + n), (u, p1 + 2 * n)]
        tag, moves = "3", ([(v, p2), (y, p1)] if method == "dist2" else [(y, p1), (x, p2)])
    elif len(shared) == 1:
        s = next(iter(shared))
        leaf1 = next(iter(s1 - shared))
        leaf2 = next(iter(s2 - shared))
        lo_edge, lo_leaf = (e1, leaf1) if leaf1 < leaf2 else (e2, leaf2)
        hi_edge, hi_leaf = (e2, leaf2) if leaf1 < leaf2 else (e1, leaf1)
        a_shared = _vertex_with(lab, lo_edge, s)
        b_shared = _vertex_with(lab, hi_edge, s)
        if lo_leaf < s < hi_leaf:
            b_leaf = _vertex_with(lab, hi_edge, hi_leaf)
            tag, moves = "2a", ([(a_shared, s)] if method == "smallchi" else [(a_shared, s), (b_leaf, hi_leaf)])
        else:  # shared value above both leaves, or below both
            tag, moves = "2b", [(b_shared if s > hi_leaf or method == "smallchi" else a_shared, s)]
    else:  # disjoint images: four distinct labels
        p1, p2, p3, p4 = sorted(s1 | s2)
        lo_pair = s1 if p1 in s1 else s2
        if p3 in lo_pair:
            return "1", []  # labels alternate: the images already cross
        if method == "smallchi":
            raise LiftInternalError("disjoint images cannot occur with at most 3 colors")
        if p2 in lo_pair:
            # separated: {p1,p2} then {p3,p4}
            lo_edge, hi_edge = (e1, e2) if s1 == {p1, p2} else (e2, e1)
            tag, moves = "1a", [(_vertex_with(lab, lo_edge, p2), p2), (_vertex_with(lab, hi_edge, p3), p3)]
        else:
            # nested: {p1,p4} around {p2,p3}
            inner_edge = e1 if s1 == {p2, p3} else e2
            tag, moves = "1b", [(_vertex_with(lab, inner_edge, p3), p3)]
    return tag, _land(method, n, moves)


def _run_lift(method: str, G: GeometricGraph, alpha: Coloring) -> LiftReport:
    if len(alpha.colors) != G.n:
        raise ValueError("coloring size does not match vertex count")
    if not is_proper(G, alpha):
        raise NotProperColoring(f"coloring is not proper for the {method} lift")

    n = alpha.n
    target_size = {"dist2": n + 2, "indep2n": 2 * n, "indep3n": 3 * n, "smallchi": 2 * n}[method]
    base, room = list(alpha.colors), n
    if method == "smallchi":
        if n not in (2, 3):
            raise ChiOutOfRange(f"the 2*chi lift needs 2 or 3 colors, got {n}")
        base = [2 * c - 1 for c in alpha.colors]
        room = 2 * n - 1  # recoded labels occupy odd positions 1..2n-1

    # The drawing's one threshold-2 verdict: below 2 it names a conflict, and
    # crossings sharing a vertex, the only conflict at 0, are found first.
    gap, conflict = G.crossing_gap
    if method == "dist2" and conflict is not None:
        raise DistanceTooSmall(conflict[1])
    if gap == 0:
        raise CrossingsNotIndependent(conflict[1])

    beta = list(base)
    log: list[tuple[Crossing, str]] = []
    for cr in G.sorted_crossings:  # by least vertex: each crossing leads with its lesser sorted edge
        tag, mods = _dispatch(method, room, base, cr)
        for v, new_label in mods:
            beta[v] = new_label
        log.append((cr, tag))

    vm = VertexMap(tuple(b - 1 for b in beta), target_size)
    if not is_geometric_hom(G, convex_clique(target_size), vm):
        raise LiftInternalError(f"{method} lift failed end-to-end verification")
    return LiftReport(
        method=method,
        target_size=target_size,
        beta=vm,
        case_log=tuple(log),
    )


def lift_dist2(G: GeometricGraph, alpha: Coloring) -> LiftReport:
    """Crossings pairwise at distance >= 2: beta into convex K_{n+2}.

    Only crossing vertices move, and only to the two spare labels n+1, n+2.
    """
    return _run_lift("dist2", G, alpha)


def lift_independent_noncollapsing(G: GeometricGraph, alpha: Coloring) -> LiftReport:
    """Independent crossings, no crossing collapsed by alpha: beta into K_{2n}.

    beta(v) is always alpha(v) or alpha(v)+n, which keeps beta proper no
    matter how crossings interleave.
    """
    return _run_lift("indep2n", G, alpha)


def lift_independent(G: GeometricGraph, alpha: Coloring) -> LiftReport:
    """Independent crossings, any proper alpha: beta into convex K_{3n}."""
    return _run_lift("indep3n", G, alpha)


def lift_small_chi(G: GeometricGraph, alpha: Coloring) -> LiftReport:
    """Independent crossings with 2 or 3 colors: beta into convex K_{2n}.

    Colors are recoded c -> 2c-1 (the K_n sits on odd hull labels) and each
    crossing bumps at most two vertices one step clockwise.
    """
    return _run_lift("smallchi", G, alpha)


def find_noncollapsing_hom(G: CrossingStructure, n: int) -> Coloring | None:
    """Proper n-coloring where no crossing has both edges on one color pair.

    Exhaustive backtracking (complete up to color permutation, which both
    constraints respect); None when no such coloring exists. Symmetry
    breaking never opens more colors than vertices, so the search runs over
    min(n, G.n) of them. Below 3 colors, every edge lies on one color pair.
    """
    G = _structure(G)
    if n < 0 or n < 3 and G.crossings:
        return None
    images = _noncollapsing(G, min(n, G.n))
    return None if images is None else Coloring(tuple(c + 1 for c in images), n)
