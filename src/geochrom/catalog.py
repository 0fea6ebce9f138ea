"""Catalogs of crossing structures realizable by geometric n-cliques.

The geochromatic number quantifies over *some* geometric clique, so solvers
need every crossing structure a straight-line K_n can have. Disjoint edges ab
and cd cross exactly when c, d lie on opposite sides of line ab and a, b on
opposite sides of line cd, so the crossings of K_n on a point set are fixed by
its order type (the orientation of every point triple). A catalog is therefore
complete once it holds a K_n on every order type of n points in general
position.

Order types are enumerated by point-set extension (Aichholzer, Aurenhammer
and Krasser, "Enumerating order types for small point sets with
applications", Order 19, 2002): starting from one triangle, one realization
of every order type of n-1 points receives a new point in each face of the
arrangement of the lines through two of its points, and the results are
deduplicated by canonical order type. A new point's signs against those
lines, its orientation row, fix the one face it lies in, and a scale w > 0
of the parent keeps every sign among the parent's points, so equal rows
mean one face and one labelled chirotope: each face is keyed once, from the
parent's orientation table completed by its row. The number of distinct
order types reached is then compared with the published totals (1, 2, 3, 16
and 135 for n = 3..7, a set and its mirror image counted once). Every type
reached is realized and distinct from the others, so equal counts mean
every order type, and hence every crossing structure, is in the catalog;
completeness rests on that count, not on the extension alone. A different
count raises instead of returning a partial catalog.

The X search needs fewer targets than the catalog holds. Geometric
homomorphisms compose, so if one K_n structure maps into another, every
drawing that maps into the first also maps into the second, and X only needs
the structures no other structure of the same size dominates (the
homomorphism order; Hell and Nesetril, "Graphs and Homomorphisms", 2004).
`CliqueCatalog.maximal` is that view. Each dominance test is itself a
geometric-hom search between two K_n, run by the search find_geometric_hom
uses (search._find_hom). A map between two K_n is a bijection, so it sends
distinct crossings to distinct crossings: a structure can only map into one
with strictly more crossings, and the convex K_n, whose C(n, 4) crossings
are the most possible, is always maximal.

The K3-K7 catalogs ship with the package (catalogs/k<n>.catalog.json),
written by `geochrom catalog --n N --out DIR`; the tests pin each file byte
for byte to the enumerator's output, so each was proved complete by the
count check when it was written. They are the only documents a catalog is
read from: each is decoded once per process, its witnesses are built and
checked as drawings, and each form is read from its `canonical` field, not
recomputed. A store without a directory returns them and builds nothing. A
store with one returns them for a file whose decoded document is the
shipped one, refuses any other file, and builds a missing one. A catalog is
written as the C-encoded `json.dumps(doc, sort_keys=True)` and a newline, in
one write to a temporary file that replaces the target whole.
"""

from __future__ import annotations

import itertools
import json
import os
from functools import cached_property, lru_cache
from math import comb, gcd
from pathlib import Path
from typing import Sequence

from .errors import CatalogMissing, GraphFormatError, SizeUnsupported, _Record
from .geometry import regular_polygon_points
from .graphs import (
    CrossingStructure,
    GeometricGraph,
    _read_json,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .search import _find_hom

# Order types of n points in general position, a set and its mirror image
# counted once (Aichholzer, Aurenhammer and Krasser 2002).
_ORDER_TYPE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 16, 7: 135}

# Crossing structures of straight-line K_n: distinct order types may share
# one. A catalog with fewer, or with repeats, is incomplete. Its keys are the
# sizes that can be cataloged.
_STRUCTURE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 15, 7: 122}
MAX_CATALOG_N = max(_STRUCTURE_COUNTS)

# Version of the catalog JSON layout. Format 1, which had no "format" field,
# recorded canonical forms from the exhaustive relabelling search that
# individualization-refinement replaced; they differ for symmetric structures.
_CATALOG_FORMAT = 2

# The K3-K7 catalogs shipped as package data: what `geochrom catalog --n N --out DIR` writes.
_SHIPPED = Path(__file__).parent / "catalogs"


@lru_cache(maxsize=None)
def convex_clique(n: int) -> GeometricGraph:
    """Complete graph on the integer regular n-gon; label i+1 = vertex id i."""
    pts = regular_polygon_points(n)
    return GeometricGraph.build(pts, itertools.combinations(range(n), 2))


class CatalogEntry(_Record):
    _fields = ("witness",)  # its structure is the witness's own, so the two cannot disagree
    witness: GeometricGraph

    def __init__(self, witness: GeometricGraph) -> None:
        object.__setattr__(self, "witness", witness)

    @property
    def structure(self) -> CrossingStructure:
        return self.witness.structure


class CliqueCatalog(_Record):
    _fields = ("n", "entries")
    n: int
    entries: tuple[CatalogEntry, ...]

    def __init__(self, n: int, entries: tuple[CatalogEntry, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def canonical_forms(self) -> frozenset[bytes]:
        return frozenset(e.structure.canonical_form for e in self.entries)

    @cached_property
    def maximal(self) -> tuple[CatalogEntry, ...]:
        """The entries into which no other entry maps, in catalog order.

        Entries are visited by decreasing crossing count, and each is tested
        only against the maximal entries already kept with strictly more
        crossings: an entry dominated by anything is, by transitivity,
        dominated by a maximal entry with more crossings still.
        """
        counts = {id(e): _edge_counts(e.structure) for e in self.entries}
        kept: list[CatalogEntry] = []
        for entry in sorted(self.entries, key=lambda e: -len(e.structure.crossings)):
            size = len(entry.structure.crossings)
            if not any(len(k.structure.crossings) > size
                       and _maps_into(entry.structure, k.structure, counts[id(entry)], counts[id(k)]) is not None
                       for k in kept):
                kept.append(entry)
        kept_ids = {id(e) for e in kept}
        return tuple(e for e in self.entries if id(e) in kept_ids)


def _edge_counts(s: CrossingStructure) -> list[list[int]]:
    """Row v: how many crossings each edge vw lies on, ascending (0 for w = v): one per triple at v with partner w."""
    return [sorted(map([w for w, _, _ in at].count, range(s.n))) for at in s.crossing_partners]


def _maps_into(source: CrossingStructure, target: CrossingStructure,
               source_counts: list[list[int]], target_counts: list[list[int]]) -> tuple[int, ...] | None:
    """The first bijection that sends every crossing of one K_n onto a crossing of another, or None.

    Edges of a complete graph map onto edges under any bijection, so only the
    crossings need checking. The crossings on an edge go to distinct crossings
    on its image, so an edge can only go to an edge with at least as many,
    and a vertex only to one whose sorted per-edge counts dominate its own:
    those candidates start the search (search._find_hom, with no vertices
    forced apart). Every pair of vertices is adjacent on both sides, so the
    map it finds is injective, hence a bijection.
    """
    n = source.n
    candidates = [sum(1 << w for w in range(n) if all(map(int.__le__, row, target_counts[w])))
                  for row in source_counts]
    images = _find_hom(source, target, [0] * n, candidates)
    return None if images is None else tuple(images)


# --- order types ------------------------------------------------------------


XY = tuple[int, int]  # an integer point of the order-type enumeration


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(itertools.combinations(range(n), 3))


def _orientations(pts: Sequence[XY], size: int) -> list[list[list[int]]]:
    """o[i][j][k]: the sign of the turn pts[i], pts[j], pts[k] (0 when two indices are equal).

    This is geometry.orientation on (x, y) pairs, inlined and computed once
    per index triple. The table has room for `size` points, every entry with
    an index past pts left 0: the enumeration builds one table per parent
    point set with a slot for the new point and patches each face's row into
    it (_patched).
    """
    n = len(pts)
    o = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i, j, k in _triples(n):
        (px, py), (qx, qy), (rx, ry) = pts[i], pts[j], pts[k]
        d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        s = (d > 0) - (d < 0)
        o[i][j][k] = o[j][k][i] = o[k][i][j] = s
        o[j][i][k] = o[i][k][j] = o[k][j][i] = -s
    return o


def _row_sums(o: list[list[list[int]]]) -> list[list[int]]:
    """sums[p][a]: the sum of o[p][a], which _order_type reads."""
    return [[sum(row) for row in plane] for plane in o]


def _patched(o: list[list[list[int]]], sums: list[list[int]], row: Sequence[int]) -> list[list[int]]:
    """Write into o the signs of its last point against each pair i < j from row, and return the new row sums.

    o is a parent's table with a slot for one more point, m = len(o) - 1,
    and sums its row sums with that slot still 0 (_row_sums). row lists
    o[i][j][m] for the pairs i < j < m in combinations order. Each pair sets
    six entries of o, each in its own row, so the returned sums are sums
    plus six adds per pair; o's other entries and sums are left as they were.
    """
    m = len(o) - 1
    t = [r[:] for r in sums]
    tm = t[m]
    for (i, j), s in zip(itertools.combinations(range(m), 2), row):
        o[i][j][m] = o[j][m][i] = o[m][i][j] = s
        o[j][i][m] = o[i][m][j] = o[m][j][i] = -s
        ti, tj = t[i], t[j]
        ti[j] += s
        tj[m] += s
        tm[i] += s
        tj[i] -= s
        ti[m] -= s
        tm[j] -= s
    return t


def _order_type(o: list[list[list[int]]], sums: list[list[int]]) -> tuple[int, ...]:
    """Canonical order type from an orientation table o and its row sums: the least chirotope over hull starts and mirror images.

    Seen from a hull vertex p the other points lie in a half-plane, so their
    orientations about p sort them by angle; sign s = -1 reads the mirror
    image. The chirotope lists s times the orientation of every triple in the
    resulting labelling, so the minimum depends on the order type alone. In
    that labelling every triple through p turns counterclockwise, so the first
    C(n - 1, 2) signs read +1 for every start; only the rest are compared.

    Every test reads the table and sums = _row_sums(o). With total =
    sums[p][a], a has (n - 2 - total) / 2 points clockwise of it about p:
    that is its place in the angular order. p is a hull vertex iff, for some
    a, line pa has all n - 2 other points on one side, i.e. |total| = n - 2.
    """
    n = len(o)
    through_p = (n - 1) * (n - 2) // 2  # the triples (0, b, c) come first
    rest = _triples(n)[through_p:]
    best = None
    for p in range(n):
        totals = sums[p]
        if n - 2 not in map(abs, totals):
            continue  # p is not a hull vertex
        for s in (1, -1):
            order = [p] * n
            for a, total in enumerate(totals):
                if a != p:
                    order[1 + (n - 2 - s * total) // 2] = a
            signs = tuple(s * o[order[a]][order[b]][order[c]] for a, b, c in rest)
            if best is None or signs < best:
                best = signs
    return (1,) * through_p + best


def _lines(pts: Sequence[XY]) -> list[tuple[int, int, int]]:
    """(a, b, c) of line a x + b y + c = 0 through each two of pts, in combinations order.

    a x + b y + c at a point r is the orientation of pts[i], pts[j], r.
    """
    return [(ay - by, bx - ax, ax * by - ay * bx) for (ax, ay), (bx, by) in itertools.combinations(pts, 2)]


def _face_points(pts: Sequence[XY]) -> list[tuple[int, int, int]]:
    """A point inside every wedge of the arrangement of the lines through two of pts, so every face at least once.

    Every face has an arrangement vertex v on its boundary, and near v it is
    one wedge between consecutive lines through v. For each wedge, with
    bounding rays r1 and r2, v moves along d = r1 + r2 half-way to the first
    other line in that direction, or by d itself when no line is ahead.

    Points are exact integer triples (x, y, w), w > 0, standing for
    (x / w, y / w) in lowest terms, so w is the least common denominator.
    Line k, a x + b y + c = 0, meets v + t d at t = -value / (w rate), with
    value = a x + b y + c w and rate = a d.x + b d.y; it lies ahead when
    value and rate have opposite signs, and the nearest such line has the
    least |value| / |rate|.
    """
    lines = _lines(pts)
    through: dict[tuple[int, int, int], set[int]] = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
        w = a1 * b2 - a2 * b1
        if w:
            x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            through.setdefault((x // g, y // g, w // g), set()).update((i, j))
    out = []
    for (x, y, w), on in through.items():
        # Each line through v gives one ray in the upper half-plane [0, pi) and its opposite;
        # a ray's place counterclockwise from angle 0 is the number of rays clockwise of it.
        ups = [(b, -a) if (-a, b) > (0, 0) else (-b, a) for a, b, _ in map(lines.__getitem__, on)]
        ups = sorted(ups, key=lambda r: sum(ux * r[1] - uy * r[0] > 0 for ux, uy in ups))
        rays = ups + [(-rx, -ry) for rx, ry in ups]
        values = [a * x + b * y + c * w for a, b, c in lines]
        for (x1, y1), (x2, y2) in zip(rays, rays[1:] + rays[:1]):
            dx, dy = x1 + x2, y1 + y2
            near = None  # (|value|, |rate|) of the nearest line ahead so far
            for (a, b, _), value in zip(lines, values):
                rate = a * dx + b * dy
                if value * rate < 0 and (near is None or abs(value) * near[1] < near[0] * abs(rate)):
                    near = (abs(value), abs(rate))
            if near is None:  # no line ahead: t = 1
                fx, fy, fw = x + w * dx, y + w * dy, w
            else:  # half-way to the nearest: t = |value| / (2 w |rate|)
                v, r = near
                fx, fy, fw = 2 * r * x + v * dx, 2 * r * y + v * dy, 2 * r * w
            g = gcd(fx, fy, fw)
            out.append((fx // g, fy // g, fw // g))
    return out


def _faces(pts: Sequence[XY]) -> dict[tuple[int, ...], tuple[int, tuple[XY, ...]]]:
    """Each face of the arrangement of the lines through two of pts, by its orientation row, with its extension.

    A face point (x / w, y / w) extends pts, scaled by w, by (x, y). Its row
    lists its signs against _lines(pts): the entries o[i][j][new] of the
    extension's orientation table. _face_points gives one point per wedge,
    so most faces several; each face keeps the least (max |coordinate|,
    extension).
    """
    lines = _lines(pts)
    reach = max(abs(c) for p in pts for c in p)
    faces: dict[tuple[int, ...], tuple[int, tuple[XY, ...]]] = {}
    for x, y, w in _face_points(pts):
        row = tuple((v > 0) - (v < 0) for v in [a * x + b * y + c * w for a, b, c in lines])
        candidate = (max(reach * w, abs(x), abs(y)), tuple((px * w, py * w) for px, py in pts) + ((x, y),))
        faces[row] = min(faces.get(row, candidate), candidate)
    return faces


@lru_cache(maxsize=None)
def _order_types(n: int) -> tuple[tuple[XY, ...], ...]:
    """One integer point set per order type of n points, in canonical order.

    Each face of a parent's arrangement is keyed once, from the parent's
    orientation table patched with the face's row (_faces, _patched): a
    scale w > 0 keeps every sign among the parent's points, so equal rows
    mean one face and one labelled chirotope, and the least candidate of
    each face is the only one of its wedge points that can be the least of
    its order type. One table and one set of row sums serve every face of a
    parent; each face rewrites only the new point's entries.
    Each type keeps the realization with the smallest coordinates that the
    extension reached, so coordinates stay small level after level (8 bits
    at n = 7).
    Points are plain (x, y) pairs; GeometricGraph.build validates the ones a
    witness keeps. Raises RuntimeError unless the number of order types
    reached is the published total for n.
    """
    if n == 3:
        return (((0, 0), (1, 0), (0, 1)),)
    found: dict[tuple[int, ...], tuple[int, tuple[XY, ...]]] = {}
    for pts in _order_types(n - 1):
        o = _orientations(pts, n)
        sums = _row_sums(o)
        for row, candidate in _faces(pts).items():
            key = _order_type(o, _patched(o, sums, row))
            found[key] = min(found.get(key, candidate), candidate)
    if len(found) != _ORDER_TYPE_COUNTS[n]:
        raise RuntimeError(
            f"point-set extension reached {len(found)} order types of {n} points, "
            f"not the published {_ORDER_TYPE_COUNTS[n]}"
        )
    return tuple(found[key][1] for key in sorted(found))


def enumerate_clique_structures(n: int) -> CliqueCatalog:
    """All crossing structures of straight-line K_n drawings, with witnesses.

    One K_n per order type of n points (see the module docstring for why that
    is complete); the witness of a structure is the K_n on the first order
    type, in canonical order, that realizes it.
    """
    if n not in _STRUCTURE_COUNTS:
        raise SizeUnsupported(f"clique structure enumeration supports n in 3..{MAX_CATALOG_N}, got {n}")
    found: dict[bytes, CatalogEntry] = {}
    for pts in _order_types(n):
        witness = GeometricGraph.build(pts, itertools.combinations(range(n), 2))
        found.setdefault(witness.structure.canonical_form, CatalogEntry(witness))
    if len(found) != _STRUCTURE_COUNTS[n]:
        raise RuntimeError(f"{len(found)} crossing structures of K_{n}, not the {_STRUCTURE_COUNTS[n]} known")
    return CliqueCatalog(n=n, entries=tuple(_convex_first(n, list(found.values()))))


def _convex_first(n: int, entries: list[CatalogEntry]) -> list[CatalogEntry]:
    """Entries by canonical form, the convex K_n first.

    The convex K_n is the only one with C(n, 4) crossings: a point set whose
    every 4 points are in convex position is itself in convex position.
    """
    return sorted(entries, key=lambda e: (len(e.structure.crossings) != comb(n, 4), e.structure.canonical_form))


# --- persistence ------------------------------------------------------------


def catalog_to_json_dict(cat: CliqueCatalog) -> dict:
    return {
        "format": _CATALOG_FORMAT,
        "n": cat.n,
        "entries": [
            {"witness": graph_to_json_dict(e.witness), "canonical": e.structure.hex}
            for e in cat.entries
        ],
    }


@lru_cache(maxsize=None)
def _shipped_doc(n: int) -> dict:
    """The decoded catalog file for n shipped in the package, read once per process."""
    return _read_json(_SHIPPED / f"k{n}.catalog.json")


@lru_cache(maxsize=None)
def _shipped_text(n: int) -> str:
    """The shipped document for n as _persist encodes it, without the final newline."""
    return json.dumps(_shipped_doc(n), sort_keys=True)


@lru_cache(maxsize=None)
def _shipped(n: int) -> CliqueCatalog:
    """The shipped catalog for n, built once per process and never re-derived.

    Each witness is still built and checked by GeometricGraph (ids, general
    position), and its structure takes its form from the entry's `canonical`
    field: the file is the enumerator's output, pinned byte for byte by the
    tests, so its forms, its order and its count were checked when it was
    written.
    """
    entries = []
    for item in _shipped_doc(n)["entries"]:
        witness = graph_from_json_dict(item["witness"])
        witness.structure._set_canonical_form(bytes.fromhex(item["canonical"]))
        entries.append(CatalogEntry(witness))
    return CliqueCatalog(n=n, entries=tuple(entries))


class CatalogStore:
    """Load-or-build access to clique catalogs, one JSON file per size.

    Without a `directory` every size up to MAX_CATALOG_N is the catalog
    shipped in the package, and nothing is built. With one, files are named
    k<n>.catalog.json inside it. A file loads only as the shipped catalog: its
    document must encode with sorted keys as the shipped one (2.0 or true is
    not an int there, but indentation and key order do not matter), and any
    other file raises GraphFormatError naming it and the command that
    rebuilds it. A missing file is built and persisted there, each through a
    temporary file that replaces it whole, unless `build_missing` is False.
    A `directory` that exists but is not a directory raises
    NotADirectoryError at once, before anything is built. Sizes 0, 1 and 2
    are the trivial single structures and never touch disk; a size that is
    not a non-negative int raises ValueError.
    """

    def __init__(self, directory: str | Path | None = None, build_missing: bool = True):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None and self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(f"catalog path {self.directory} is not a directory")
        self.build_missing = build_missing
        self._cache: dict[int, CliqueCatalog] = {}

    def path_for(self, n: int) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"k{n}.catalog.json"

    def get(self, n: int) -> CliqueCatalog:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"n must be a non-negative int, got {n!r}")
        if n in self._cache:
            return self._cache[n]
        if n <= 2:
            cat = CliqueCatalog(n=n, entries=(CatalogEntry(convex_clique(n)),))
        elif n > MAX_CATALOG_N:
            raise CatalogMissing(f"catalogs are capped at n={MAX_CATALOG_N}, requested {n}")
        else:
            cat = self._load(n)
            if cat is None:
                if not self.build_missing:
                    raise CatalogMissing(f"catalog for n={n} not found and building is disabled")
                cat = enumerate_clique_structures(n)
                self._persist(cat)
        self._cache[n] = cat
        return cat

    def _load(self, n: int) -> CliqueCatalog | None:
        path = self.path_for(n)
        if path is None:
            return _shipped(n)
        if not path.exists():
            return None
        # Sorted-key encodings of NaN-free documents agree exactly when they are equal with strict types.
        if json.dumps(_read_json(path), sort_keys=True) != _shipped_text(n):
            raise GraphFormatError(f"{path} is not the K{n} catalog this version ships; "
                                   f"rebuild it with `geochrom catalog --n {n} --out DIR`")
        return _shipped(n)

    def _persist(self, cat: CliqueCatalog) -> None:
        path = self.path_for(cat.n)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(catalog_to_json_dict(cat), sort_keys=True) + "\n"  # the C encoder, one write
        # Written whole or not at all: an interrupted write leaves no truncated file for the next load.
        # A plain exclusive open, unlike mkstemp's 0600, gives the file the mode the umask allows.
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
