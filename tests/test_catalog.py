import hashlib
import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geochrom import (
    CatalogMissing,
    CatalogStore,
    CrossingStructure,
    GeometricGraph,
    GraphFormatError,
    Point,
    SizeUnsupported,
    VertexMap,
    convex_clique,
    crossing_structure,
    crossings_of,
    enumerate_clique_structures,
    figure_graphs,
    geochromatic_number,
    graph_to_json_dict,
    is_general_position,
    is_geometric_hom,
)
import geochrom.catalog as catalog
import geochrom.graphs as graphs
from conftest import CACHE_DIR, forget_shipped
from geochrom.catalog import (
    _SHIPPED,
    _edge_counts,
    _face_points,
    _faces,
    _maps_into,
    _order_type,
    _order_types,
    _orientations,
    _patched,
    _row_sums,
    _shipped,
    catalog_to_json_dict,
)
from geochrom.cli import main
from oracles import (
    brute_force_geometric_hom_exists,
    crossing_pairs_raw,
    grid_structures,
    reference_canonical_form,
    reference_face_points,
    reference_order_type,
    reference_order_types,
)


def test_convex_clique_crossing_counts():
    assert len(crossings_of(convex_clique(3))) == 0
    assert len(crossings_of(convex_clique(4))) == 1
    # one crossing per 4-subset in convex position
    assert len(crossings_of(convex_clique(6))) == 15


def test_enumerate_small_sizes():
    c3 = enumerate_clique_structures(3)
    assert len(c3.entries) == 1
    c4 = enumerate_clique_structures(4)
    assert len(c4.entries) == 2
    counts = sorted(len(e.structure.crossings) for e in c4.entries)
    assert counts == [0, 1]


def test_enumerate_rejects_out_of_range():
    with pytest.raises(SizeUnsupported):
        enumerate_clique_structures(2)
    with pytest.raises(SizeUnsupported):
        enumerate_clique_structures(8)


def test_entries_start_with_convex_structure(store):
    for n in (4, 5):
        cat = store.get(n)
        convex = crossing_structure(convex_clique(n))
        assert cat.entries[0].structure == convex


def _bijection_into(entry, target):
    """A bijection that is_geometric_hom accepts from entry's witness onto target, or None."""
    n = entry.witness.n
    for perm in itertools.permutations(range(n)):
        if is_geometric_hom(entry.witness, target.structure, VertexMap(perm, n)):
            return perm
    return None


def test_maximal_entries_dominate_the_rest(store):
    for n, kept in ((4, 1), (5, 1), (6, 3)):
        cat = store.get(n)
        assert len(cat.maximal) == kept
        assert cat.maximal[0] is cat.entries[0]
        assert cat.maximal[0].structure == crossing_structure(convex_clique(n))
        assert [e for e in cat.entries if e in cat.maximal] == list(cat.maximal)  # catalog order
        for entry in cat.entries:
            if entry not in cat.maximal:
                assert any(_bijection_into(entry, k) is not None for k in cat.maximal)
        for a, b in itertools.permutations(cat.maximal, 2):
            assert _bijection_into(a, b) is None


def test_dominance_search_matches_brute_force_on_random_structures():
    # Random crossing sets on K5, realizable or not, so that every pruning
    # rule of the search meets cases where it alone decides.
    rng = random.Random(3)
    edges = list(itertools.combinations(range(5), 2))
    disjoint = [(e, f) for e, f in itertools.combinations(edges, 2) if not set(e) & set(f)]
    answers = set()
    for _ in range(300):
        source, target = (sorted(rng.sample(disjoint, rng.randint(1, 4))) for _ in range(2))
        expected = brute_force_geometric_hom_exists(5, edges, source, 5, edges, target)
        structures = [CrossingStructure(5, edges, c) for c in (source, target)]
        assert (_maps_into(*structures, *map(_edge_counts, structures)) is not None) == expected, (source, target)
        answers.add(expected)
    assert answers == {True, False}


def test_witnesses_realize_their_structures(store):
    for n in (3, 4, 5):
        for entry in store.get(n).entries:
            assert crossing_structure(entry.witness).canonical_form == entry.structure.canonical_form
            assert entry.witness.n == n
            assert len(entry.witness.edges) == n * (n - 1) // 2


def test_enumeration_matches_grid_oracle_and_committed_catalogs():
    forms = {n: enumerate_clique_structures(n).canonical_forms() for n in range(3, 7)}
    assert [len(forms[n]) for n in range(3, 7)] == [1, 2, 3, 15]
    assert forms[4] == grid_structures(4, 4)
    assert forms[5] == grid_structures(5, 5)
    for n in range(3, 7):
        doc = json.loads((CACHE_DIR / f"k{n}.catalog.json").read_text())
        assert {bytes.fromhex(item["canonical"]) for item in doc["entries"]} == forms[n]


def _key(pts):
    """The order type of pts, from its own orientation table and that table's row sums."""
    o = _orientations(pts, len(pts))
    return _order_type(o, _row_sums(o))


def test_order_type_key_is_invariant_and_covers_random_point_sets():
    keys = {n: {_key(pts) for pts in _order_types(n)} for n in (5, 6)}
    assert [len(keys[n]) for n in (5, 6)] == [3, 16]
    rng = random.Random(7)
    for trial in range(400):
        n = 5 + trial % 2
        pts = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(n)]
        if not is_general_position([Point(*p) for p in pts]):
            continue
        key = _key(pts)
        assert key in keys[n]
        turned = [(3 - y, x - 7) for x, y in pts]
        mirrored = [(-x, y) for x, y in pts]
        assert _key(turned) == _key(mirrored) == _key(rng.sample(pts, n)) == key


def test_face_points_and_order_types_equal_the_reference_on_every_extension():
    # The integer, table-driven forms must return exactly what the Fraction and
    # predicate forms return: the same face points in the same order, and the
    # same key for every extension they produce.
    extensions = 0
    for n in range(3, 7):
        for pts in _order_types(n):
            faces = _face_points(pts)
            assert [(Fraction(x, w), Fraction(y, w)) for x, y, w in faces] == reference_face_points(pts)
            for x, y, w in faces:
                ext = [(px * w, py * w) for px, py in pts] + [(x, y)]
                assert _key(ext) == reference_order_type(ext)
                extensions += 1
    assert extensions == 12 + 64 + 268 + 3470


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_order_types_equal_the_per_wedge_reference(n):
    assert _order_types(n) == reference_order_types(n)


def test_each_face_patched_into_its_parents_table_gets_the_table_and_row_sums_of_its_extension():
    # One table and one set of row sums per parent serve all its faces, as in _order_types: after each
    # face's patch they must be the extension's own, whatever face was patched in before.
    faces = 0
    for n in range(3, 7):
        for pts in _order_types(n):
            o = _orientations(pts, n + 1)
            sums = _row_sums(o)
            assert sums == [[sum(row) for row in plane] for plane in o]
            for row, (reach, ext) in _faces(pts).items():
                patched = _patched(o, sums, row)
                assert o == _orientations(ext, len(ext))
                assert patched == [[sum(r) for r in plane] for plane in o]
                assert _order_type(o, patched) == reference_order_type(ext)
                assert reach == max(abs(c) for p in ext for c in p)
                faces += 1
    assert faces == 7 + 34 + 115 + 1276


def test_the_enumeration_keys_each_face_once(calls_of):
    _order_types.cache_clear()  # enumerate every size afresh
    keyed = calls_of(catalog._order_type)
    counts = []
    for n in range(4, 8):
        before = len(keyed)
        _order_types(n)
        counts.append(len(keyed) - before)
    assert counts == [7, 34, 115, 1276]


# sha256 of json.dumps(catalog_to_json_dict(enumerate_clique_structures(n)), sort_keys=True):
# which realization becomes each witness, and the entry order, are pinned with the forms. The
# committed file is the one a store persists, so the enumeration is the one source of witnesses.
_CATALOG_DIGESTS = {
    3: "c97bae8fb2a732510f94019e2133d18dffd64908f36884a153f44469bafaef8a",
    4: "b08f33d39b477c000d6ada8f1b0419fa42ec569d4ff1e3696b7898370fe897c9",
    5: "c0a0e984dc99ee8bca3447113fd02934445b821dba55552f846744083bcba2cd",
    6: "02b277461661fcb84322d6c86c1b7a91f4ad830644965ac05b170bd75903dbfd",
    7: "7469dd47184c975727f179ec434b69d0635da467f172d5450fbf57130a3631ac",
}


@pytest.mark.parametrize("n", sorted(_CATALOG_DIGESTS))
def test_enumerated_catalog_is_pinned(n, tmp_path):
    doc = json.dumps(catalog_to_json_dict(CatalogStore(tmp_path).get(n)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == _CATALOG_DIGESTS[n]
    name = f"k{n}.catalog.json"
    assert (tmp_path / name).read_bytes() == (_SHIPPED / name).read_bytes() == (doc + "\n").encode()


def test_the_committed_test_catalogs_are_the_shipped_files():
    # The benchmark copies tests/.catalog_cache, so both copies are pinned to the enumerator's bytes.
    names = sorted(p.name for p in _SHIPPED.iterdir())
    assert names == [f"k{n}.catalog.json" for n in sorted(_CATALOG_DIGESTS)]
    assert sorted(p.name for p in CACHE_DIR.iterdir()) == names
    for name in names:
        assert (CACHE_DIR / name).read_bytes() == (_SHIPPED / name).read_bytes()


def test_the_package_data_glob_covers_every_shipped_catalog():
    tomllib = pytest.importorskip("tomllib")
    root = Path(catalog.__file__).parent
    config = tomllib.loads((root.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["geochrom"]
    declared = {path for pattern in globs for path in root.glob(pattern)}
    assert sorted(declared) == sorted(_SHIPPED.iterdir())


def test_k7_builds_and_every_witness_realizes_its_structure(tmp_path):
    cat = CatalogStore(tmp_path).get(7)
    assert len(cat.entries) == 122
    assert len(cat.maximal) == 17 and cat.maximal[0] is cat.entries[0]
    # the maximal view, in catalog order: its crossing counts, and a digest of its hexes
    assert [len(e.structure.crossings) for e in cat.maximal] == [35, 15, 17, 17, 19, 21, 21, 21, 21,
                                                                  23, 23, 23, 23, 23, 27, 27, 29]
    maximal = " ".join(e.structure.hex for e in cat.maximal)
    assert hashlib.sha256(maximal.encode()).hexdigest() == (
        "e00b6355b83e8bee26edb8e6e5371e22bde3180d6a7c76a549b481cfc5fd05bf")
    for entry in cat.entries:
        pts = [(p.x, p.y) for p in entry.witness.points]
        assert crossing_pairs_raw(pts, entry.witness.edges) == entry.structure.crossings
    reloaded = CatalogStore(tmp_path, build_missing=False).get(7)
    assert reloaded.canonical_forms() == cat.canonical_forms()


def test_k7_forms_agree_with_the_reference_on_every_order_type():
    # 135 order types of 7 points give 122 crossing structures: the forms must
    # merge exactly the K7 drawings the reference merges, and no others.
    structures = [crossing_structure(GeometricGraph.build(pts, itertools.combinations(range(7), 2)))
                  for pts in _order_types(7)]
    forms = [s.canonical_form for s in structures]
    reference = [reference_canonical_form(7, s.adjacency, s.crossings) for s in structures]
    assert len(structures) == 135 and len(set(forms)) == len(set(reference)) == 122
    for i, j in itertools.combinations(range(len(structures)), 2):
        assert (forms[i] == forms[j]) == (reference[i] == reference[j])


def test_k6_build_is_identical_across_hash_seeds():
    script = ("import json; from geochrom.catalog import catalog_to_json_dict, enumerate_clique_structures; "
              "print(json.dumps(catalog_to_json_dict(enumerate_clique_structures(6)), sort_keys=True))")
    outs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1] and len(outs[0]) > 1000


def test_k5_count_and_projection_spot_check(store):
    cat5 = store.get(5)
    assert len(cat5.entries) == 3  # frozen from the enumeration, cross-checked by sampling
    cat4_forms = store.get(4).canonical_forms()
    # deleting any vertex of any 5-clique witness lands in the 4-catalog
    for entry in cat5.entries:
        for drop in range(5):
            keep = [v for v in range(5) if v != drop]
            pts = [entry.witness.points[v] for v in keep]
            sub = GeometricGraph.build(pts, itertools.combinations(range(4), 2))
            assert crossing_structure(sub).canonical_form in cat4_forms


def _refused(directory, n, doc, capsys=None):
    """Write doc as the K_n file of directory and check that a store that builds nothing refuses it by name.

    With capsys, `geochrom x` on the convex K_n must refuse it too, exit 2: the drawing's lower bound is n, so
    its search reads that file first.
    """
    directory.mkdir(exist_ok=True)
    path = directory / f"k{n}.catalog.json"
    path.write_text(json.dumps(doc))
    message = f"{path} is not the K{n} catalog this version ships; rebuild it with `geochrom catalog --n {n} --out DIR`"
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        CatalogStore(directory, build_missing=False).get(n)
    if capsys is not None:
        drawing = directory.parent / f"convex{n}.json"
        drawing.write_text(json.dumps(graph_to_json_dict(convex_clique(n))))
        capsys.readouterr()
        code = main(["x", str(drawing), "--catalog", str(directory), "--no-build"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": message, "kind": "GraphFormatError"}


def test_catalog_json_round_trip(tmp_path, store):
    cat = store.get(4)
    (tmp_path / "k4.catalog.json").write_text(json.dumps(catalog_to_json_dict(cat)))
    again = CatalogStore(tmp_path, build_missing=False).get(4)
    assert again.n == cat.n
    assert again.canonical_forms() == cat.canonical_forms()


def test_store_rejects_a_catalog_saved_under_another_size(tmp_path, store, capsys):
    _refused(tmp_path / "catalogs", 5, catalog_to_json_dict(store.get(4)), capsys)


@pytest.mark.parametrize("broken", ["truncated", "directory", "undecodable"])
def test_store_names_a_catalog_file_it_cannot_read(tmp_path, broken):
    path = tmp_path / "k4.catalog.json"
    if broken == "directory":
        path.mkdir()
    elif broken == "undecodable":
        path.write_bytes(b"\xff\xfe{}")  # "{}" behind a UTF-16 byte-order mark: not UTF-8
    else:
        path.write_text('{"n": 4, "format": 2, "entries": [')
    with pytest.raises(GraphFormatError, match=re.escape(str(path))):
        CatalogStore(tmp_path, build_missing=False).get(4)


def test_catalog_rejects_a_witness_that_is_not_the_complete_graph(tmp_path, store):
    doc = catalog_to_json_dict(store.get(5))
    k5 = convex_clique(5)
    for witness in (GeometricGraph.build(k5.points, sorted(k5.edges)[1:]), convex_clique(4)):
        entry = {"witness": graph_to_json_dict(witness), "canonical": crossing_structure(witness).hex}
        _refused(tmp_path, 5, dict(doc, entries=doc["entries"] + [entry]))


# The complete K4 catalog (convex entry first), which loads as the shipped
# one: each document below breaks one field of it, and only that field, so
# none is refused for being incomplete or for being in an older format alone.
_K4_DOC = catalog_to_json_dict(enumerate_clique_structures(4))
_K4_ENTRY, _K4_OTHER = _K4_DOC["entries"]
_FORMAT = _K4_DOC["format"]


def test_the_k4_document_the_field_cases_break_loads(tmp_path):
    (tmp_path / "k4.catalog.json").write_text(json.dumps(_K4_DOC))
    assert CatalogStore(tmp_path, build_missing=False).get(4) is _shipped(4)


@pytest.mark.parametrize("doc", [
    {"format": _FORMAT, "n": 6, "entries": [{"canonical": "00"}]},
    dict(_K4_DOC, entries=[{"witness": _K4_ENTRY["witness"]}, _K4_OTHER]),
    dict(_K4_DOC, entries=[dict(_K4_ENTRY, canonical=7), _K4_OTHER]),
    dict(_K4_DOC, entries=[dict(_K4_ENTRY, witness="k4"), _K4_OTHER]),
    dict(_K4_DOC, entries=["k4", _K4_OTHER]),
    dict(_K4_DOC, entries={"0": _K4_ENTRY, "1": _K4_OTHER}),
    dict(_K4_DOC, entries=[]),
    {"format": _FORMAT, "n": 4},
    dict(_K4_DOC, n="4"),
    dict(_K4_DOC, n=True),
    {"format": _FORMAT, "entries": [_K4_ENTRY, _K4_OTHER]},
    [4, [_K4_ENTRY, _K4_OTHER]],
])
def test_catalog_rejects_missing_or_ill_typed_fields(tmp_path, capsys, doc):
    _refused(tmp_path / "catalogs", 4, doc, capsys)


@pytest.mark.parametrize("version", [None, 1, "2", 2.0, 3])
def test_catalog_in_another_format_names_the_command_that_rebuilds_it(tmp_path, capsys, version):
    # Format 1 had no "format" field. The K4 canonical forms did not change,
    # so this document differs from the shipped one in its format alone.
    doc = {"n": 4, "entries": [_K4_ENTRY, _K4_OTHER]}
    if version is not None:
        doc["format"] = version
    _refused(tmp_path / "catalogs", 4, doc, capsys)


@pytest.mark.parametrize("damage", ["convex_entry_duplicated", "convex_entry_deleted", "entry_repeated_all_kept"])
def test_store_rejects_an_incomplete_k6_catalog(tmp_path, store, damage):
    # The first two files loaded silently before, and X of the convex K6 came out
    # None, not 6. Both lack the convex entry: "duplicated" puts a copy of entry 1
    # in its place. The third keeps all 15 structures and repeats one (16 entries).
    doc = catalog_to_json_dict(store.get(6))
    entries = doc["entries"]
    damaged = {
        "convex_entry_duplicated": [entries[1], *entries[1:]],
        "convex_entry_deleted": entries[1:],
        "entry_repeated_all_kept": [*entries, entries[0]],
    }[damage]
    path = tmp_path / "k6.catalog.json"
    path.write_text(json.dumps(dict(doc, entries=damaged)))
    with pytest.raises(GraphFormatError, match=re.escape(f"{path} is not the K6 catalog this version ships")):
        geochromatic_number(convex_clique(6), CatalogStore(tmp_path, build_missing=False), max_n=6)


def test_enumeration_and_loader_check_one_structure_count_table(monkeypatch):
    # The enumerator alone checks the count: a store reads no catalog but the shipped ones it wrote.
    monkeypatch.setitem(catalog._STRUCTURE_COUNTS, 4, 3)
    with pytest.raises(RuntimeError, match="2 crossing structures of K_4, not the 3 known"):
        enumerate_clique_structures(4)


def test_store_trivial_sizes_and_missing(tmp_path):
    store = CatalogStore(tmp_path)
    assert [len(store.get(n).entries) for n in (0, 1, 2)] == [1, 1, 1]
    assert list(tmp_path.iterdir()) == []
    for n, form in ((0, "000000000000"), (1, "000100000000"), (2, "0002000100010000")):
        entries = CatalogStore(None).get(n).entries
        assert [e.structure.hex for e in entries] == [form]
        assert crossing_structure(entries[0].witness).hex == form
    with pytest.raises(CatalogMissing):
        store.get(8)
    for n in (-1, True, 4.0, "4"):
        with pytest.raises(ValueError, match=re.escape(f"n must be a non-negative int, got {n!r}")):
            store.get(n)
    frozen = CatalogStore(tmp_path / "empty", build_missing=False)
    with pytest.raises(CatalogMissing):
        frozen.get(4)


def test_store_persists_and_reloads(tmp_path):
    store = CatalogStore(tmp_path)
    built = store.get(4)
    assert (tmp_path / "k4.catalog.json").exists()
    fresh = CatalogStore(tmp_path, build_missing=False)
    loaded = fresh.get(4)
    assert loaded.canonical_forms() == built.canonical_forms()


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_a_persisted_catalog_gets_the_mode_a_plain_open_gives(tmp_path, umask):
    # mkstemp made every catalog 0600 whatever the umask, and the replace kept that mode.
    previous = os.umask(umask)
    try:
        CatalogStore(tmp_path).get(3)
        with open(tmp_path / "sibling.json", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("k3.catalog.json", "sibling.json")}
    assert modes == {0o666 & ~umask}


def test_interrupted_persist_leaves_no_file_and_the_next_get_rebuilds(tmp_path, monkeypatch):
    # A write cut off half-way once left a truncated file that every later load refused.
    def cut_off(path, mode, **options):
        fh = open(path, mode, **options)

        class Failing:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, text):
                fh.write(text[:len(text) // 2])
                raise OSError("no space left")

        return Failing()

    with monkeypatch.context() as patch:
        patch.setattr(catalog, "open", cut_off, raising=False)
        with pytest.raises(OSError, match="no space left"):
            CatalogStore(tmp_path).get(4)
    assert list(tmp_path.iterdir()) == []
    built = CatalogStore(tmp_path).get(4)
    assert [p.name for p in tmp_path.iterdir()] == ["k4.catalog.json"]
    assert CatalogStore(tmp_path, build_missing=False).get(4).canonical_forms() == built.canonical_forms()


def test_the_store_without_a_directory_returns_the_shipped_catalogs_and_derives_nothing(calls_of):
    forget_shipped()
    forms, built = calls_of(graphs._canonical_bytes), calls_of(catalog.enumerate_clique_structures)
    store = CatalogStore(None, build_missing=False)
    for n in range(3, 8):
        cat = store.get(n)
        assert cat is _shipped(n) is CatalogStore(None).get(n)
        doc = json.loads((_SHIPPED / f"k{n}.catalog.json").read_text())
        assert catalog_to_json_dict(cat) == doc
        assert [e.structure.hex for e in cat.entries] == [item["canonical"] for item in doc["entries"]]
    assert forms == [] and built == []
    # the forms taken from the files are the ones the witnesses have
    for n in range(3, 6):
        assert [crossing_structure(e.witness).hex for e in _shipped(n).entries] == \
               [e.structure.hex for e in _shipped(n).entries]


@pytest.mark.parametrize("layout", ["as_shipped", "reindented"])
def test_a_directory_holding_the_shipped_documents_loads_them_without_canonicalizing(tmp_path, calls_of, layout):
    for n in range(3, 8):
        doc = json.loads((_SHIPPED / f"k{n}.catalog.json").read_text())
        text = json.dumps(doc, sort_keys=True) if layout == "as_shipped" else json.dumps(doc, indent=4)
        (tmp_path / f"k{n}.catalog.json").write_text(text)
    forget_shipped()
    forms, built = calls_of(graphs._canonical_bytes), calls_of(catalog.enumerate_clique_structures)
    store = CatalogStore(tmp_path, build_missing=False)
    assert all(store.get(n) is _shipped(n) for n in range(3, 8))
    assert forms == [] and built == []


def _k5_doc():
    return json.loads((_SHIPPED / "k5.catalog.json").read_text())


@pytest.mark.parametrize("change", ["coordinate_scaled", "coordinate_as_float", "format_as_float",
                                    "edge_end_as_bool", "canonical_swapped"])
def test_a_document_that_differs_from_the_shipped_one_gets_the_full_check(tmp_path, calls_of, change):
    # The full check is the comparison with the shipped document: every change below, the valid scaled
    # catalog too, is refused without a canonical form computed.
    doc = _k5_doc()
    first, second = doc["entries"][0], doc["entries"][1]
    if change == "coordinate_scaled":  # the same order type, so a valid catalog
        for v in first["witness"]["vertices"]:
            v["x"], v["y"] = 2 * v["x"], 2 * v["y"]
    elif change == "coordinate_as_float":  # == takes 0.0 for 0, the full check does not
        first["witness"]["vertices"][0]["x"] = float(first["witness"]["vertices"][0]["x"])
    elif change == "format_as_float":
        doc["format"] = 2.0
    elif change == "edge_end_as_bool":
        first["witness"]["edges"][0] = [False, True]
    else:
        first["canonical"], second["canonical"] = second["canonical"], first["canonical"]
    assert doc == _k5_doc() or change in ("coordinate_scaled", "canonical_swapped")
    forms = calls_of(graphs._canonical_bytes)
    _refused(tmp_path, 5, doc)
    assert forms == []


def test_figure1_structures_present_in_k6_catalog(store):
    forms = store.get(6).canonical_forms()
    for tag in ("figure1_left", "figure1_right"):
        assert crossing_structure(figure_graphs(tag)).canonical_form in forms
