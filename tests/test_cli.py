import builtins
import json
import random

import pytest

from geochrom import (
    COORD_BOUND,
    FIGURE_TAGS,
    CatalogStore,
    GeometricGraph,
    GraphFormatError,
    Point,
    chromatic_number,
    convex_clique,
    crossings_of,
    enumerate_clique_structures,
    figure_graphs,
    graph_from_json_dict,
    graph_to_json_dict,
    min_pairwise_crossing_distance,
    random_geometric_graph,
    segments_cross,
    star_crossing,
)
from geochrom import catalog, cli, graphs
from geochrom.catalog import catalog_to_json_dict
from geochrom.cli import main
from conftest import CACHE_DIR
from oracles import fraction_intersection_point, parabola_chain


def dumps(g):
    return json.dumps(graph_to_json_dict(g), separators=(",", ":"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def fig6(tmp_path):
    path = tmp_path / "fig6.json"
    path.write_text(dumps(figure_graphs("figure6")))
    return str(path)


def test_chi_command(capsys, fig6):
    code, out, _ = run(capsys, "chi", fig6)
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"] == 3
    assert len(doc["coloring"]) == 6


def test_px_command(capsys, fig6):
    code, out, _ = run(capsys, "px", fig6)
    assert code == 0
    assert json.loads(out)["px"] == 5


def test_x_command_resolves(capsys, fig6):
    code, out, _ = run(capsys, "x", fig6, "--max-n", "7", "--catalog", str(CACHE_DIR), "--no-build")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == 6
    assert doc["target"]["n"] == 6
    assert len(doc["map"]) == 6


def test_x_command_unresolved_exit_code(capsys, fig6):
    code, out, _ = run(capsys, "x", fig6, "--max-n", "5", "--catalog", str(CACHE_DIR), "--no-build")
    assert code == 1
    assert json.loads(out) == {"status": "unresolved", "searched_to": 5}


def test_x_without_a_catalog_reads_the_shipped_catalogs_and_builds_nothing(capsys, fig6, calls_of):
    built = calls_of(catalog.enumerate_clique_structures)
    shipped = run(capsys, "x", fig6)
    assert built == []
    assert shipped == run(capsys, "x", fig6, "--catalog", str(CACHE_DIR), "--no-build")
    assert shipped[0] == 0 and json.loads(shipped[1])["x"] == 6


def test_x_refuses_no_build_without_a_catalog(capsys, fig6):
    # Without --catalog the shipped catalogs are read and nothing is ever built, so the flag could change nothing.
    code, out, err = run(capsys, "x", fig6, "--no-build")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--catalog" in json.loads(err)["error"]


def test_x_and_the_indep2n_lift_answer_on_a_path_longer_than_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(dumps(GeometricGraph([Point(i, i * i) for i in range(1200)], [(i, i + 1) for i in range(1199)])))
    code, out, _ = run(capsys, "x", str(path))
    assert code == 0 and json.loads(out)["x"] == 2
    code, out, _ = run(capsys, "lift", str(path), "--method", "indep2n")
    assert code == 0 and json.loads(out)["target_size"] == 4


@pytest.mark.parametrize("source", ["committed", "fresh"])
def test_x_prints_the_witness_drawing_its_map_replays_against(capsys, tmp_path, fig6, source):
    # The map is into the labelling of the target entry's own witness, so verify replays it against the
    # printed drawing, read from the committed catalogs or built afresh into an empty directory.
    catalogs = [str(CACHE_DIR), "--no-build"] if source == "committed" else [str(tmp_path / "fresh")]
    code, out, _ = run(capsys, "x", fig6, "--max-n", "6", "--catalog", *catalogs)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["x", "target", "map"] and list(doc["target"]) == ["n", "canonical", "witness"]
    witness = graph_from_json_dict(doc["target"]["witness"])
    assert witness.n == doc["target"]["n"] == doc["x"] == 6
    assert graphs.crossing_structure(witness).hex == doc["target"]["canonical"]
    target, images = tmp_path / "target.json", tmp_path / "map.json"
    target.write_text(json.dumps(doc["target"]["witness"]))
    images.write_text(json.dumps(doc["map"]))
    code, out, _ = run(capsys, "verify", fig6, str(target), str(images))
    assert (code, json.loads(out)) == (0, {"graph_hom": True, "geometric_hom": True})


def test_x_command_at_max_n_zero(capsys, tmp_path):
    empty, one = tmp_path / "empty.json", tmp_path / "one.json"
    empty.write_text('{"vertices": [], "edges": []}')
    one.write_text('{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": []}')
    code, out, _ = run(capsys, "x", str(empty), "--max-n", "0")
    assert (code, json.loads(out)) == (0, {"x": 0, "target": {"n": 0, "canonical": "000000000000",
                                                              "witness": {"vertices": [], "edges": []}}, "map": []})
    code, out, _ = run(capsys, "x", str(one), "--max-n", "0")
    assert (code, json.loads(out)) == (1, {"status": "unresolved", "searched_to": 0})


@pytest.mark.parametrize("verb", ["chi", "catalog", "x"])
def test_write_failure_is_exit_2_with_one_line_json(capsys, tmp_path, fig6, verb):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv = {"chi": ["chi", fig6, "-o", str(tmp_path / "missing" / "out.json")],
            "catalog": ["catalog", "--n", "4", "--out", str(a_file)],
            "x": ["x", fig6, "--catalog", str(a_file)]}[verb]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert issubclass(getattr(builtins, json.loads(err)["kind"]), OSError)


@pytest.mark.parametrize("verb", ["catalog", "x"])
def test_catalog_path_that_is_a_file_is_refused_before_any_build(capsys, tmp_path, fig6, monkeypatch, verb):
    a_file = tmp_path / "afile"
    a_file.write_text("")
    builds = []
    for module in (cli, catalog):
        monkeypatch.setattr(module, "enumerate_clique_structures", lambda n: builds.append(n))
    argv = {"catalog": ["catalog", "--n", "4", "--out", str(a_file)],
            "x": ["x", fig6, "--catalog", str(a_file)]}[verb]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": f"catalog path {a_file} is not a directory", "kind": "NotADirectoryError"}
    assert builds == [] and a_file.read_text() == ""


def test_gen_round_trip(capsys, tmp_path):
    out_path = tmp_path / "star.json"
    code, _, _ = run(capsys, "gen", "star", "--k", "4", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    g = graph_from_json_dict(json.loads(text))
    assert g == star_crossing(4)[0]
    # writer is canonical: dumping again reproduces the same bytes
    assert dumps(g) + "\n" == text


def test_gen_deterministic_random(capsys):
    code, out1, _ = run(capsys, "gen", "random", "--vertices", "7", "--prob", "0.3", "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "random", "--vertices", "7", "--prob", "0.3", "--seed", "5")
    assert code == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("prob", ["2", "-0.5", "nan"])
def test_gen_random_rejects_probability_outside_unit_interval(capsys, prob):
    code, out, err = run(capsys, "gen", "random", "--vertices", "7", "--prob", prob)
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "ValueError"


def test_verify_command(capsys, tmp_path):
    g, beta = star_crossing(3)
    g_path = tmp_path / "g.json"
    h_path = tmp_path / "h.json"
    m_path = tmp_path / "m.json"
    g_path.write_text(dumps(g))
    h_path.write_text(dumps(convex_clique(4)))
    m_path.write_text(json.dumps({"map": list(beta.images)}))
    code, out, _ = run(capsys, "verify", str(g_path), str(h_path), str(m_path))
    assert code == 0
    assert json.loads(out) == {"graph_hom": True, "geometric_hom": True}

    # a 2-coloring onto one edge of K4 is a graph hom that sends each
    # crossing onto that one edge: negative result, exit 1
    chi, coloring = chromatic_number(g)
    assert chi == 2 and crossings_of(g)
    m_path.write_text(json.dumps([c - 1 for c in coloring.colors]))
    code, out, _ = run(capsys, "verify", str(g_path), str(h_path), str(m_path))
    assert code == 1
    assert json.loads(out) == {"graph_hom": True, "geometric_hom": False}

    # a constant map is not a hom: negative result, exit 1
    m_path.write_text(json.dumps([0] * g.n))
    code, out, _ = run(capsys, "verify", str(g_path), str(h_path), str(m_path))
    assert code == 1
    assert json.loads(out) == {"graph_hom": False, "geometric_hom": False}


@pytest.mark.parametrize("images, message", [
    ("0123", "must be a list or an object"),
    ({"map": [0, 1, 2, 3, 0.5, 1]}, "list of target ids"),
    ({"map": [True, 1, 2, 3, 0, 1]}, "list of target ids"),
    ([0, 1, 2, 3, 0], "shape does not match"),
    ([0, 1, 2, 3, 0, 4], "shape does not match"),
], ids=["string", "float", "bool", "short", "out-of-range"])
def test_verify_rejects_a_map_that_does_not_fit(capsys, tmp_path, images, message):
    g, _ = star_crossing(3)  # 6 vertices, into the convex K4
    paths = [tmp_path / name for name in ("g.json", "h.json", "m.json")]
    paths[0].write_text(dumps(g))
    paths[1].write_text(dumps(convex_clique(4)))
    paths[2].write_text(json.dumps(images))
    code, out, err = run(capsys, "verify", *map(str, paths))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "GraphFormatError" and message in doc["error"]


def test_bound_lower_command(capsys, fig6):
    code, out, _ = run(capsys, "bound", "lower", fig6)
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == 6
    by_pair = {tuple(p["pair"]): p["rules"] for p in doc["pairs"]}
    assert by_pair[(3, 4)] == ["D"]


def test_bound_lower_reports_long_odd_path_pair(capsys, tmp_path):
    from test_obstructions import accordion

    path = tmp_path / "accordion.json"
    path.write_text(dumps(accordion()))
    code, out, _ = run(capsys, "bound", "lower", str(path))
    assert code == 0
    by_pair = {tuple(p["pair"]): p["rules"] for p in json.loads(out)["pairs"]}
    assert by_pair[(0, 9)] == ["C"]


def test_lift_command(capsys, tmp_path):
    path = tmp_path / "f3l.json"
    path.write_text(dumps(figure_graphs("figure3_left")))
    code, out, _ = run(capsys, "lift", "--method", "dist2", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "dist2"
    assert doc["target_size"] == 4
    assert {c["case"] for c in doc["cases"]} == {"3"}

    # distance-1 input: hypothesis fails, negative exit
    path.write_text(dumps(figure_graphs("figure3_right")))
    code, _, err = run(capsys, "lift", "--method", "dist2", str(path))
    assert code == 1
    assert json.loads(err)["kind"] == "DistanceTooSmall"


def test_lift_indep2n_map_replays_through_verify(capsys, tmp_path):
    g_path, h_path, lift_path = (tmp_path / name for name in ("g.json", "h.json", "lift.json"))
    g_path.write_text(dumps(figure_graphs("figure3_right")))  # chi 2 collapses a crossing, 3 does not
    code, _, _ = run(capsys, "lift", "--method", "indep2n", str(g_path), "-o", str(lift_path))
    assert code == 0
    assert lift_path.read_text() == (
        '{"method":"indep2n","target_size":6,"map":[1,0,0,3,2,3,1,2],"cases":'
        '[{"crossing":[[0,5],[1,4]],"case":"2b"},{"crossing":[[2,7],[3,6]],"case":"2b"}]}\n')
    h_path.write_text(dumps(convex_clique(6)))
    code, out, _ = run(capsys, "verify", str(g_path), str(h_path), str(lift_path))
    assert code == 0
    assert json.loads(out) == {"graph_hom": True, "geometric_hom": True}


def test_lift_indep2n_reports_shared_vertex_crossings_without_searching(capsys, tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(dumps(random_geometric_graph(10, 0.5, seed=2)))  # crossings share vertex 0
    calls = []
    search = cli.find_noncollapsing_hom
    monkeypatch.setattr(cli, "find_noncollapsing_hom", lambda g, n: calls.append(n) or search(g, n))
    errors = {}
    for method in ("indep2n", "indep3n"):
        code, out, err = run(capsys, "lift", "--method", method, str(path))
        assert code == 1 and out == ""
        errors[method] = json.loads(err)
    assert errors["indep2n"] == errors["indep3n"]
    assert errors["indep2n"]["kind"] == "CrossingsNotIndependent" and "share vertex 0" in errors["indep2n"]["error"]
    assert calls == []


@pytest.mark.parametrize("drawing", [figure_graphs("figure3_right"), random_geometric_graph(10, 0.5, seed=2)],
                         ids=["independent", "shared_vertex"])
def test_lift_indep2n_decides_crossing_distance_once(drawing, capsys, tmp_path, calls_of):
    # The verb's independence test reads the verdict the lift reuses: no second BFS.
    path = tmp_path / "g.json"
    path.write_text(dumps(drawing))
    independent = min_pairwise_crossing_distance(drawing) >= 1
    gaps = calls_of(graphs._crossing_gap)
    code, _, _ = run(capsys, "lift", "--method", "indep2n", str(path))
    assert code == (0 if independent else 1) and len(gaps) == 1


def test_lift_indep2n_without_a_noncollapsing_coloring_is_refused_by_the_lift(capsys, tmp_path, monkeypatch):
    # chi's 2-coloring of figure3_right collapses a crossing; with the search
    # finding nothing, the lift itself refuses that coloring.
    path = tmp_path / "f3r.json"
    path.write_text(dumps(figure_graphs("figure3_right")))
    monkeypatch.setattr(cli, "find_noncollapsing_hom", lambda g, n: None)
    code, out, err = run(capsys, "lift", "--method", "indep2n", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "CollapsedCrossingPair" and "has both edges colored" in doc["error"]


def test_lift_indep2n_on_a_long_chain_of_independent_crossings(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(dumps(GeometricGraph.build(*parabola_chain(120))))
    code, out, _ = run(capsys, "lift", "--method", "indep2n", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["target_size"] == 6 and len(doc["cases"]) == 120


def test_k0_is_the_empty_drawing_for_gen_and_lift(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "edges": []}')
    for method in ("indep3n", "indep2n"):  # 3 * chi and 2 * chi colors, chi = 0
        code, out, _ = run(capsys, "lift", "--method", method, str(path))
        assert (code, out) == (0, f'{{"method":"{method}","target_size":0,"map":[],"cases":[]}}\n')
    code, out, _ = run(capsys, "x", str(path))
    assert (code, json.loads(out)) == (0, {"x": 0, "target": {"n": 0, "canonical": "000000000000",
                                                              "witness": {"vertices": [], "edges": []}}, "map": []})
    code, out, _ = run(capsys, "gen", "convex", "--n", "0")
    assert (code, out) == (0, '{"vertices":[],"edges":[]}\n')
    code, _, err = run(capsys, "gen", "convex", "--n", "-1")
    assert code == 2 and json.loads(err)["kind"] == "ValueError"


def test_catalog_command(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--n", "4", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "k4.catalog.json"
    assert json.loads(out) == {"n": 4, "entries": 2, "path": str(path)}
    on_disk = json.loads(path.read_text())
    assert on_disk["n"] == 4 and len(on_disk["entries"]) == 2
    code, out, _ = run(capsys, "catalog", "--n", "4")
    assert code == 0
    assert json.loads(out) == on_disk


def test_catalog_command_rebuilds_a_catalog_in_format_1(capsys, tmp_path):
    # The format error names this command as the fix, so it must build over the stale file, not load it.
    doc = catalog_to_json_dict(enumerate_clique_structures(4))
    del doc["format"]  # format 1 had no "format" field
    path = tmp_path / "k4.catalog.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="format 1"):
        CatalogStore(tmp_path, build_missing=False).get(4)
    code, out, _ = run(capsys, "catalog", "--n", "4", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out) == {"n": 4, "entries": 2, "path": str(path)}
    assert json.loads(path.read_text())["format"] == 2
    assert len(CatalogStore(tmp_path, build_missing=False).get(4).entries) == 2


@pytest.mark.parametrize("n", ["1", "2", "8"])
def test_catalog_command_accepts_only_cataloged_sizes(capsys, tmp_path, n):
    out_dir = tmp_path / "cats"
    for extra in ([], ["--out", str(out_dir)]):
        code, out, err = run(capsys, "catalog", "--n", n, *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "SizeUnsupported"
    assert not out_dir.exists()


def test_coordinate_beyond_the_bound_is_a_format_error(capsys, tmp_path):
    text = '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1073741825, "y": 0}], "edges": [[0, 1]]}'
    with pytest.raises(GraphFormatError, match="exceeds the"):
        graph_from_json_dict(json.loads(text))
    path = tmp_path / "far.json"
    path.write_text(text)
    code, out, err = run(capsys, "chi", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "GraphFormatError"


def test_x_command_rejects_a_malformed_catalog(capsys, tmp_path, fig6):
    (tmp_path / "k6.catalog.json").write_text('{"format": 2, "n": 6, "entries": [{"canonical": "00"}]}')
    code, out, err = run(capsys, "x", fig6, "--catalog", str(tmp_path), "--no-build", "--max-n", "6")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["kind"] == "GraphFormatError"


def test_a_catalog_entry_that_does_not_realize_its_canonical_form_is_refused(capsys, tmp_path):
    doc = json.loads((CACHE_DIR / "k5.catalog.json").read_text())
    first, second = doc["entries"][:2]
    first["canonical"], second["canonical"] = second["canonical"], first["canonical"]
    catalogs = tmp_path / "catalogs"
    catalogs.mkdir()
    (catalogs / "k5.catalog.json").write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="does not realize its recorded canonical form"):
        CatalogStore(catalogs, build_missing=False).get(5)
    k5 = tmp_path / "k5.json"  # its lower bound is 5, so X's search reads the K5 catalog first
    k5.write_text(dumps(convex_clique(5)))
    code, out, err = run(capsys, "x", str(k5), "--catalog", str(catalogs), "--no-build")
    assert code == 2 and out == ""
    assert "does not realize its recorded canonical form" in json.loads(err)["error"]


def test_x_command_names_a_catalog_file_that_is_not_json(capsys, tmp_path, fig6):
    path = tmp_path / "k6.catalog.json"  # X of figure 6 is 6, and its search starts there
    path.write_text('{"n": 6, "format": 2, "entries": [')
    code, out, err = run(capsys, "x", fig6, "--catalog", str(tmp_path), "--no-build")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "GraphFormatError" and str(path) in doc["error"]


def test_render_command(capsys, tmp_path, fig6):
    out_path = tmp_path / "fig6.svg"
    code, _, _ = run(capsys, "render", fig6, "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<line") == 5  # one per edge
    assert svg.count('stroke="red"') == 4  # one marker per crossing


def test_crossing_marks_equal_the_fraction_points():
    # Int true division rounds correctly, as float(Fraction) does, so every mark lands on the same float.
    graphs = [figure_graphs(tag) for tag in FIGURE_TAGS]
    graphs += [random_geometric_graph(16, 0.4, seed=seed) for seed in range(8)]
    drawn = [[g.points[v] for v in (*e1, *e2)] for g in graphs for e1, e2 in crossings_of(g)]
    assert len(drawn) == 1563
    rng = random.Random(5)
    wide = []  # coordinates up to the bound, where the quotients need rounding
    while len(wide) < 3000:
        quad = [Point(rng.randint(-COORD_BOUND, COORD_BOUND), rng.randint(-COORD_BOUND, COORD_BOUND))
                for _ in range(4)]
        if segments_cross(*quad):
            wide.append(quad)
    for quad in drawn + wide:
        assert cli._segment_intersection_point(*quad) == fraction_intersection_point(*quad)


def test_invalid_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": "nope"}')
    code, _, err = run(capsys, "chi", str(bad))
    assert code == 2
    assert json.loads(err)["kind"] == "GraphFormatError"
    code, _, err = run(capsys, "chi", str(tmp_path / "missing.json"))
    assert code == 2


_TRIANGLE = [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 10, "y": 0}, {"id": 2, "x": 0, "y": 10}]


@pytest.mark.parametrize("doc, message", [
    ({"vertices": {}, "edges": []}, "'vertices' must be a list"),
    ({"vertices": _TRIANGLE, "edges": "0-1"}, "'edges' must be a list"),
    ({"vertices": [{"id": 0, "x": 0}], "edges": []}, "lacks id/x/y"),
    ({"vertices": [{"id": 0, "x": 0.5, "y": 0}], "edges": []}, "vertex 0: coordinates must be int, got float"),
    ({"vertices": _TRIANGLE + [{"id": 1, "x": 5, "y": 7}], "edges": []}, "duplicate vertex id 1"),
    ({"vertices": _TRIANGLE[:2] + [{"id": 3, "x": 0, "y": 10}], "edges": []}, "exactly 0..n-1"),
    ({"vertices": _TRIANGLE, "edges": [[0, 1, 2]]}, "must be a pair of ids"),
    ({"vertices": _TRIANGLE, "edges": [[0, "1"]]}, "must be a pair of ids"),
    ({"vertices": _TRIANGLE, "edges": [[0, True]]}, "must be a pair of ids"),
    ({"vertices": _TRIANGLE, "edges": [[0, 1], [1, 0]]}, "duplicate edges"),
    ({"vertices": _TRIANGLE, "edges": [[1, 1]]}, "edge (1,1) must join two distinct ids of 0..2"),
    ({"vertices": _TRIANGLE, "edges": [[0, 3]]}, "edge (0,3) must join two distinct ids of 0..2"),
    ({"vertices": _TRIANGLE, "edges": [[-1, 0]]}, "edge (-1,0) must join two distinct ids of 0..2"),
], ids=["vertices-not-list", "edges-not-list", "vertex-without-y", "float-coordinate", "duplicate-id",
        "ids-not-0..n-1", "edge-triple", "edge-with-string", "edge-with-bool", "duplicate-edge",
        "loop-edge", "edge-past-n", "negative-id"])
def test_malformed_graph_file_is_a_format_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chi", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "GraphFormatError" and message in error["error"]


def test_graph_file_that_is_not_utf8_is_a_format_error_naming_it(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{}")  # "{}" behind a UTF-16 byte-order mark
    code, out, err = run(capsys, "chi", str(path))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "GraphFormatError" and str(path) in doc["error"]


@pytest.mark.parametrize("verb", ["chi", "verify", "x"])
def test_deeply_nested_json_file_is_a_format_error_naming_it(capsys, tmp_path, fig6, verb):
    # X of figure 6 is 6, and its search starts at the K6 catalog
    bad = tmp_path / {"chi": "g.json", "verify": "m.json", "x": "k6.catalog.json"}[verb]
    bad.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"chi": ["chi", bad], "verify": ["verify", fig6, fig6, bad],
            "x": ["x", fig6, "--catalog", tmp_path, "--no-build"]}[verb]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "GraphFormatError" and str(bad) in doc["error"]
