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
on these forced pairs, so its chromatic number lower-bounds X. Each rule is
one int row per vertex, bit w of rows[r][v] set when r forces v and w apart;
B ORs into the rows of each crossed edge's two ends the other end and the
ends of every edge crossing it, one walk over the edges crossing it.

C and D rest on one side-of-line fact, so both are exact at any length: an
edge that crosses e has one endpoint strictly on each side of e's line, so the
edges crossed by e form a bipartite graph whose sides are the sides of that
line. Two of its vertices are joined by an odd path exactly when they lie in
one component on opposite sides (a shortest path between them is simple), so
C ORs each component's side masks into the rows of the other side. For D, the
edges crossed by a 2-path contain an odd cycle exactly when that union is not
bipartite, which needs both of its edges crossed.

D reads the same component masks. A two-coloring of the union restricts, on
each component of either graph, to its own coloring or its flip. Components
of the two graphs that meet on one side must flip alike, on opposite sides
unalike, and meeting both ways closes an odd cycle: the paths between the two
meeting vertices, one in each component, differ in parity. So the union is
bipartite exactly when one graph's components join the other's one by one,
each merged with the components it meets after flipping them to agree,
without meeting one both ways: a parity union-find over the components, not
over shared vertices. The same join builds each graph's components, one
crossing edge at a time.

The rules, their union and the per-pair provenance are views built on first
read. X' is chi of rows A and B, and the bound, chi of all rows, is at least
X', since X' is chi of a subgraph. So X''s coloring certifies the bound when
it is proper on rows C and D as well, and it usually is; otherwise the search
runs from X' up.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import cached_property
from itertools import combinations

from .errors import _Record
from .graphs import CrossingStructure, Edge, _structure
from .search import Coloring, _chromatic


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _FrozenMap(Mapping):
    """A read-only mapping that, unlike MappingProxyType, hashes by its items and pickles."""

    __slots__ = ("_items",)

    def __init__(self, items: dict) -> None:
        self._items = items

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"


class DistinctnessGraph(_Record):
    """rows maps each letter A-D to one int per vertex, bit w of rows[r][v] set
    when rule r forces v and w apart; rules (the sorted pairs of each row set),
    forced_pairs (their union) and provenance are built on first read. rows,
    rules and provenance are read-only mappings that hash and pickle, so the
    record hashes by its fields and a drawing keeping it in its memo pickles."""

    _fields = ("n", "rows")
    n: int
    rows: Mapping[str, tuple[int, ...]]

    def __init__(self, n: int, rows: Mapping[str, tuple[int, ...]]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def rules(self) -> Mapping[str, frozenset[Edge]]:
        return _FrozenMap({rule: frozenset((v, w) for v, row in enumerate(rows) for w in _members(row) if v < w)
                           for rule, rows in self.rows.items()})

    @cached_property
    def forced_pairs(self) -> frozenset[Edge]:
        return frozenset().union(*self.rules.values())

    @cached_property
    def provenance(self) -> Mapping[Edge, frozenset[str]]:
        return _FrozenMap({pair: frozenset(rule for rule, pairs in self.rules.items() if pair in pairs)
                           for pair in self.forced_pairs})

    def lower_bound(self) -> int:
        """Chromatic number of the forced-pair graph; always <= X(G-bar). Computed once."""
        return self._chi

    @cached_property
    def _pseudo(self) -> tuple[int, Coloring]:
        """X' with its coloring: chi of rows A and B, every edge and crossing pair."""
        return _chromatic([a | b for a, b in zip(self.rows["A"], self.rows["B"])], 0)

    @cached_property
    def _chi(self) -> int:
        # chi of all rows is at least X', chi of a subgraph of them, so X''s
        # coloring, proper on A|B already, certifies it when proper on C|D too.
        pseudo, coloring = self._pseudo
        colors = coloring.colors
        classes = [0] * (pseudo + 1)
        for v, color in enumerate(colors):
            classes[color] |= 1 << v
        rows = self.rows
        if not any((c | d) & classes[color] for c, d, color in zip(rows["C"], rows["D"], colors)):
            return pseudo
        forced = [a | b | c | d for a, b, c, d in zip(*map(rows.__getitem__, "ABCD"))]
        return _chromatic(forced, pseudo)[0]

    @cached_property
    def _apart(self) -> list[int]:
        """The row of vertices kept off each vertex's image besides its neighbours, for find_geometric_hom."""
        return [(b | c | d) & ~a for a, b, c, d in zip(*map(self.rows.__getitem__, "ABCD"))]


def _join(comps: list[tuple[int, int]], members: int, ones: int) -> list[tuple[int, int]] | None:
    """comps with the component (members, side-1 members) joined in, or None for an odd cycle.

    Each component it meets is flipped to agree with it and merged, unless it
    meets it both on one side and on opposite sides."""
    rest = []
    for m, s in comps:
        if shared := m & members:
            apart = shared & (s ^ ones)
            if apart and apart != shared:
                return None
            members, ones = members | m, ones | (s ^ m if apart else s)
        else:
            rest.append((m, s))
    rest.append((members, ones))
    return rest


def _union_has_odd_cycle(c1: list[tuple[int, int]], c2: list[tuple[int, int]]) -> bool:
    """Whether two bipartite graphs, given as (members, side-1 members) per component, have a non-bipartite union."""
    for members, ones in c2:
        c1 = _join(c1, members, ones)
        if c1 is None:
            return True
    return False


_MEMO_KEY = "_distinctness"


def non_identifiable_pairs(G: CrossingStructure) -> DistinctnessGraph:
    """All vertex pairs rules A-D force apart, as one row set per rule.

    Computed once per structure and kept in its own __dict__, where
    cached_property keeps its search views, so it lives exactly as long as
    the structure, and a drawing and its structure share one read-only result.
    Crossings that no drawing realizes, where the edges crossing one edge form
    an odd cycle, raise ValueError naming that edge.
    """
    s = _structure(G)
    memo = vars(s)
    if _MEMO_KEY not in memo:
        memo[_MEMO_KEY] = _distinctness_graph(s)
    return memo[_MEMO_KEY]


def _distinctness_graph(G: CrossingStructure) -> DistinctnessGraph:
    n = G.n
    b, c, d = [0] * n, [0] * n, [0] * n
    crossed_by: dict[Edge, list[Edge]] = {}
    for e1, e2 in G.crossings:
        crossed_by.setdefault(e1, []).append(e2)
        crossed_by.setdefault(e2, []).append(e1)

    at: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(n)]  # (other end, components)
    for (u, v), crossed in crossed_by.items():
        # One walk over the edges crossing uv: the mask of their ends, which
        # rule B forces apart from u and v, and their components, bipartite by
        # the side-of-line fact. An edge meeting no earlier component starts one.
        ends = 0
        comps: list[tuple[int, int]] = []
        for x, y in crossed:
            pair = 1 << x | 1 << y
            comps = _join(comps, pair, 1 << y)
            if comps is None:  # never on a drawing, by the side-of-line fact
                raise ValueError(f"the edges crossing ({u},{v}) form an odd cycle, "
                                 "so no drawing realizes these crossings")
            ends |= pair
        b[u] |= ends | 1 << v
        b[v] |= ends | 1 << u
        at[u].append((v, comps))
        at[v].append((u, comps))
        for members, ones in comps:  # rule C: each vertex apart from the other side of its component
            for side, other in ((ones, members ^ ones), (members ^ ones, ones)):
                while side:
                    low = side & -side
                    side ^= low
                    c[low.bit_length() - 1] |= other

    for crossed_at in at:
        for (u, c1), (v, c2) in combinations(crossed_at, 2):
            if _union_has_odd_cycle(c1, c2):
                d[u] |= 1 << v
                d[v] |= 1 << u

    rows = {"A": tuple(G.neighbour_rows), "B": tuple(b), "C": tuple(c), "D": tuple(d)}
    return DistinctnessGraph(n, _FrozenMap(rows))


def geochromatic_lower_bound(G: CrossingStructure) -> int:
    """Chromatic number of the forced-pair graph; always <= X(G-bar)."""
    return non_identifiable_pairs(G).lower_bound()
