"""Module layering of the package, read from the source with ast.

Every import sits at the top of its module, and the imports between the
package's modules form no cycle, so each module can be read and loaded after
the ones it names. The witness records and the checks that replay every
answer live in verify alone, which imports only the graph layer, and no
function of the search core calls itself. Input files are read and decoded
in graphs alone, and only graphs tells a drawing from a crossing structure.
Records compare by their fields, a crossing structure alone by its
canonical form. A CLI process loads no standard module that only decorating
records or exact fractions would need, and `import geochrom` loads every
module the benchmark's tracer wraps.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from geochrom import crossing_structure, figure_graphs

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geochrom"
SPANS = PACKAGE.parent.parent / "bench" / "spans.py"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node: ast.AST) -> set[str]:
    """The package modules one import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in names if parts[0] == "geochrom" and len(parts) > 1}
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "geochrom":
            return set()
        return {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def _import_graph() -> dict[str, set[str]]:
    graph = {}
    for name, tree in MODULES.items():
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                targets |= _imported_modules(node) & MODULES.keys()
        graph[name] = targets - {name}
    return graph


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, str] = {}  # "open" while on the DFS stack, then "done"
    stack: list[str] = []

    def visit(v: str) -> list[str] | None:
        state[v] = "open"
        stack.append(v)
        for w in sorted(graph[v]):
            if state.get(w) == "open":
                return stack[stack.index(w):] + [w]
            if w not in state:
                cycle = visit(w)
                if cycle:
                    return cycle
        stack.pop()
        state[v] = "done"
        return None

    for v in sorted(graph):
        if v not in state:
            cycle = visit(v)
            if cycle:
                return cycle
    return None


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{name}.py:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                          for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_imports_form_no_cycle():
    graph = _import_graph()
    assert graph["homomorphism"] >= {"catalog", "graphs"}  # the imports are read at all
    assert _find_cycle(graph) is None, " -> ".join(_find_cycle(graph))


def test_cycle_finder_reports_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def _file_reads(tree: ast.AST) -> list[str]:
    """The json.load, json.loads, .read_text and .read_bytes a module names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            on_json = isinstance(node.value, ast.Name) and node.value.id == "json"
            if node.attr in ("read_text", "read_bytes") or on_json and node.attr in ("load", "loads"):
                found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"from json import {a.name}" for a in node.names if a.name in ("load", "loads")]
    return found


def test_only_graphs_reads_input_files():
    # graphs._read_json names the file in every GraphFormatError; a second reader would drift from it.
    reads = {name: _file_reads(tree) for name, tree in MODULES.items()}
    reader = next(fn for fn in MODULES["graphs"].body if isinstance(fn, ast.FunctionDef) and fn.name == "_read_json")
    decode = _file_reads(reader)
    assert len(decode) == 1 and decode[0].startswith("load at")  # the scan sees the one reader
    assert reads.pop("graphs") == decode  # and graphs decodes nowhere else
    assert {name: found for name, found in reads.items() if found} == {}


def _namers(name: str, called: bool = False) -> set[str]:
    """Each module.function or module.Class.method whose body names `name`; module.<module> outside any.

    With `called`, only the bodies that call it.
    """
    found = set()

    def names(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name

    def visit(node: ast.AST, module: str, owner: str | None, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef) and owner is None and cls is None:
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = f"{cls}.{node.name}" if cls else node.name
        if isinstance(node, ast.Call) and names(node.func) if called else names(node):
            found.add(f"{module}.{owner or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner, cls)

    for module, tree in MODULES.items():
        visit(tree, module, None, None)
    return found


CHECKS = ("VertexMap", "Coloring", "is_graph_hom", "is_geometric_hom", "is_proper", "is_pseudo_coloring")


def test_the_trust_base_imports_only_the_graph_layer():
    # The witness records and the checks that replay every answer are written from the definitions alone:
    # a solver, a catalog or the obstruction rules imported here would check themselves.
    assert _import_graph()["verify"] == {"errors", "graphs"}


def test_the_witness_records_and_checks_are_defined_once_in_the_trust_base():
    defined = {(module, node.name) for module, tree in MODULES.items() for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in CHECKS}
    assert defined == {("verify", name) for name in CHECKS}


def test_every_module_takes_the_witness_records_and_checks_from_the_trust_base():
    sources = {}
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and {alias.name for alias in node.names} & set(CHECKS):
                sources.setdefault(module, set()).add(node.module)
    assert sources == {module: {"verify"} for module in ("__init__", "search", "obstructions", "homomorphism",
                                                          "lifts", "generators", "cli")}


def test_no_function_in_the_search_core_calls_itself():
    # A search recursing once per mapped vertex hits the interpreter's recursion limit on a long source, and
    # a closure naming itself is a reference cycle left for the cyclic collector.
    sample = ast.parse("def f(n):\n    def g():\n        return g()\n    return f(n)\ndef h():\n    return f(1)")
    assert _self_callers(sample) == ["f", "g"]  # the scan sees a function and a closure
    assert _self_callers(MODULES["search"]) == []


def _self_callers(tree: ast.AST) -> list[str]:
    """The functions, nested ones too, whose bodies call them by name."""
    return sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
                          for node in ast.walk(fn)))


def test_search_core_has_its_named_callers():
    # One backtracker, and one geometric-hom search on it that X and the catalog's dominance view share;
    # the chi search is search._chromatic, behind chromatic_number, X' and the lower bound.
    assert _namers("_backtrack") == {"search._chromatic", "search._find_hom", "search._noncollapsing"}
    assert _namers("_find_hom") == {"homomorphism.find_geometric_hom", "catalog._maps_into"}


def test_the_searches_read_the_views_of_the_objects_handed_over():
    # Callers hand a search a drawing or a structure; besides the searches, canonical labelling and the catalog's
    # per-edge counts read the partner list, and chi's two row readers the neighbour rows.
    assert _namers("crossing_index") == {"search._find_hom"}
    assert _namers("crossing_partners") == {"search._find_hom", "search._noncollapsing", "graphs._canonical_bytes",
                                            "catalog._edge_counts"}
    assert _namers("neighbour_rows") == {"search._find_hom", "search._noncollapsing", "homomorphism.chromatic_number",
                                         "obstructions._distinctness_graph"}


def test_one_serialization_and_one_refinement_make_every_canonical_form():
    # Leaves are keyed by their form bytes, so a second serialization or refinement path could only drift
    # from the forms that catalog files store.
    assert _namers("_form_bytes", called=True) == {"graphs._canonical_bytes"}
    assert _namers("_refine_partition", called=True) == {"graphs._canonical_bytes"}


def test_the_solve_path_reads_int_rows():
    # Neighbour lists serve canonical refinement and the crossing-distance BFS; every search reads int rows,
    # and the forced-pair rows are read as they are, listed only for the pair-set view.
    assert _namers("_adj_lists") == {"graphs._canonical_bytes", "graphs._crossing_gap"}
    assert _namers("_members") == {"obstructions.DistinctnessGraph.rules"}


def test_only_graphs_and_search_name_the_crossing_index():
    # Every search maps into a CrossingIndex that graphs builds and search narrows by; no caller builds its rules.
    assert {namer.split(".")[0] for namer in _namers("CrossingIndex")} == {"graphs", "search"}


def test_one_builder_makes_every_crossing_index():
    # A structure's (a drawing's is its structure's) and search's K_k targets all come from one table builder.
    assert _namers("CrossingIndex", called=True) == {"graphs._crossing_index"}
    assert _namers("_crossing_index", called=True) == {"graphs.CrossingStructure.crossing_index",
                                                       "search._complete", "search._all_crossing"}


def test_drawings_and_structures_keep_the_one_partner_list_of_each():
    # Canonical labelling and every search read the list a structure keeps, a drawing's too, since a drawing
    # hands its structure over; search builds its K_k targets alone.
    assert _namers("_crossing_partners", called=True) == {"graphs.CrossingStructure.crossing_partners"}
    assert _namers("_complete", called=True) == {"search._chromatic"}


def test_one_rule_checks_every_edge_set():
    # graphs._edge_set alone refuses a bad vertex count or edge, for drawings, structures and (n, edges) alike:
    # graphs._structure reads an (n, edges) graph as a structure with no crossings.
    assert _namers("_edge_set") == {"graphs.GeometricGraph.__init__", "graphs.CrossingStructure.__init__"}


def test_only_a_drawing_adopts_its_edges_and_crossings_and_both_entries_check_alike():
    # A drawing's edges passed _edge_set and its straddle pass emits normal Crossings; any other caller of the
    # adopting entry would skip the normalizing on input no one normalized. Both entries run the one check loop.
    assert _namers("_adopt", called=True) == {"graphs.GeometricGraph.structure"}
    assert _namers("_check_and_store", called=True) == {"graphs.CrossingStructure.__init__",
                                                        "graphs.CrossingStructure._adopt"}


def _type_tests(tree: ast.AST) -> list[int]:
    """The lines of each isinstance(...) whose class argument names GeometricGraph or CrossingStructure."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and any(isinstance(name, ast.Name) and name.id in ("GeometricGraph",
                                                                                        "CrossingStructure")
                                            for name in ast.walk(node.args[1]))]


def test_only_graphs_tells_a_drawing_from_a_structure():
    # Every solver reads the structure that graphs._structure returns; a second type test elsewhere would let
    # a solver answer a drawing and its structure differently.
    sample = ast.parse("isinstance(g, GeometricGraph)\nisinstance(g, (int, CrossingStructure))\nisinstance(g, int)")
    assert _type_tests(sample) == [1, 2]  # the scan sees both forms
    assert {name: lines for name, tree in MODULES.items() if name != "graphs" and (lines := _type_tests(tree))} == {}


def test_crossing_structure_is_a_fresh_record_whose_form_is_not_yet_computed():
    # The canon-symmetric benchmark builds its structures before the timed op and times only their forms.
    g = figure_graphs("figure6")
    g.structure.canonical_form
    fresh = crossing_structure(g)
    assert fresh is not g.structure and fresh._canonical is None
    assert fresh == g.structure  # equal, once its own form is computed


def _record_comparers(tree: ast.AST) -> dict[str, list[str]]:
    """The __eq__ and __hash__ that each class deriving from _Record defines itself, by class."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases):
            own = [f.name for f in node.body if isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__")]
            if own:
                found[node.name] = own
    return found


def test_only_a_crossing_structure_compares_otherwise_than_by_its_fields():
    # _Record compares and hashes a record by its fields; a CrossingStructure compares by its canonical form.
    # A copy of _Record's methods kept for speed would be one more place for the two to drift apart.
    sample = ast.parse("class P(_Record):\n    def __eq__(self, o): pass\n    def __lt__(self, o): pass\n"
                       "class Q(int):\n    def __hash__(self): pass")
    assert _record_comparers(sample) == {"P": ["__eq__"]}  # the scan sees a record's own method
    found = {name: own for tree in MODULES.values() for name, own in _record_comparers(tree).items()}
    assert found == {"CrossingStructure": ["__eq__", "__hash__"]}


def _crossing_sorts(tree: ast.AST) -> list[int]:
    """The lines of each sorted(...) of a `.crossings` attribute or of a crossings_of(...) call."""

    def is_crossings(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "crossings"
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "crossings_of"

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sorted"
            and node.args and is_crossings(node.args[0])]


def test_the_kept_order_is_the_only_order_of_a_drawings_crossings():
    # The straddle pass emits a drawing's crossings sorted, as sorted_crossings; a caller sorting them again
    # would pay a sort that the drawing has already kept.
    sample = ast.parse("sorted(crossings_of(g))\nsorted(g.crossings, key=len)\nsorted(g.edges)")
    assert _crossing_sorts(sample) == [1, 2]  # the scan sees both forms
    assert {name: lines for name, tree in MODULES.items() if (lines := _crossing_sorts(tree))} == {}


def test_search_core_names_no_graph_type():
    # The searches read the views a source and a target keep, and build their own K_k targets with the one table
    # builder; which kind of graph a source or target came from is the callers' affair.
    from_graphs = [alias.name for node in ast.walk(MODULES["search"])
                   if isinstance(node, ast.ImportFrom) and node.module == "graphs" for alias in node.names]
    assert from_graphs == ["CrossingIndex", "_crossing_index"]
    assert not {namer for name in ("GeometricGraph", "CrossingStructure") for namer in _namers(name)
                if namer.startswith("search.")}


def test_cli_import_loads_no_dataclass_or_fraction_machinery():
    # A fresh interpreter, since pytest itself has loaded all four; every `geochrom` process pays for what loads here.
    unwanted = ("dataclasses", "inspect", "fractions", "decimal")
    code = f"import sys, geochrom.cli; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    assert _fresh_interpreter(code).strip() == "[]"


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_package_import_loads_every_module_the_tracer_wraps():
    # bench/spans.py's Tracer.install reads sys.modules["geochrom.<module>"] right after `import geochrom`,
    # so a lazy __init__ would fail `bench/run.py --trace 1` with KeyError.
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), str(SPANS))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"])
    needed = sorted({f"geochrom.{module}" for module, _, _ in wrapped} | {"geochrom.graphs", "geochrom.catalog"})
    assert len(needed) >= 5  # graphs, catalog, homomorphism, obstructions and lifts at least
    code = f"import sys, geochrom; print(sorted(m for m in {needed!r} if m not in sys.modules))"
    assert _fresh_interpreter(code).strip() == "[]"
