"""The four workloads: what one operation is, its inputs, and its checks.

Each workload has `setup` (timed as setup_s), `generate` (the benchmark's
own input generation, timed separately and never traced) and `run` (the
measured closed loop: one client, the next operation starts when the
previous one returns). Answers are checked after each operation, outside
the timed region, against the package-independent oracle.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import inputs
import oracle

CATALOG_SIZES = (3, 4, 5, 6)
CATALOG_COUNTS = {3: 1, 4: 2, 5: 3, 6: 15}
MAX_N = 6  # X is searched with the committed catalogs only; nothing is built
LIFT_METHODS = ("dist2", "indep2n", "indep3n", "smallchi")


def _points_edges(doc: dict):
    pts = [(v["x"], v["y"]) for v in sorted(doc["vertices"], key=lambda v: v["id"])]
    return pts, [tuple(e) for e in doc["edges"]]


def _hypotheses(dist: int, chi: int) -> dict[str, bool]:
    """Which lifts may run, from the oracle's crossing distance and chi."""
    return {
        "dist2": dist >= 2,
        "indep2n": dist >= 1,
        "indep3n": dist >= 1,
        "smallchi": dist >= 1 and chi in (2, 3),
    }


def _target_size(method: str, colors: int) -> int:
    return {"dist2": colors + 2, "indep2n": 2 * colors, "indep3n": 3 * colors, "smallchi": 2 * colors}[method]


def _noncollapsing(crossings, colors) -> bool:
    return all(
        {colors[a], colors[b]} != {colors[c], colors[d]} for (a, b), (c, d) in crossings
    )


_convex = functools.cache(oracle.convex_clique_relation)


@contextmanager
def _shape(run, what: str, res):
    """Checks of one CLI result `res`; output of the wrong shape is a wrong answer.

    `res` is None when the process failed; that is already counted, and the
    checks are skipped.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OSError) as exc:
        run.check(res is None, f"{what}: output of the wrong shape ({exc!r})")


# --- solve-corpus -------------------------------------------------------------


@dataclass
class Solution:
    crossings: frozenset
    chi: int
    coloring: tuple
    px: int
    pseudo: tuple
    lower: int
    x: object  # XResult or None (unresolved)
    lifts: dict  # method -> LiftReport, None (no non-collapsing coloring) or the refusal
    alpha: object  # non-collapsing Coloring, or None
    replay: list  # package verifier verdicts on every witness


class SolveCorpus:
    """Solve one drawing end to end, as a user would, against the K3-K6 catalogs."""

    name = "solve-corpus"
    # Drawings per run: this many per second of --seconds. A fixed count, not a
    # deadline, so that memory and the input mix do not depend on speed. About
    # one drawing in 80 exhausts the catalog search at 0.1-0.4 s; thousands of
    # drawings keep the mean steady across seeds.
    PER_SECOND = 400
    DENSITIES = (0.15, 0.2, 0.25, 0.3, 0.35)

    def setup(self, run) -> None:
        self.gc = gc = importlib.import_module("geochrom")
        self.refusals = (gc.DistanceTooSmall, gc.CrossingsNotIndependent, gc.ChiOutOfRange,
                         gc.CollapsedCrossingPair)
        self.store = gc.CatalogStore(run.copy_catalogs(), build_missing=False)
        self.forms = {}
        for n in range(1, MAX_N + 1):  # sizes 1 and 2 are built in, never loaded
            with run.span(f"catalog.load.k{n}"):
                self.forms[n] = self.store.get(n).canonical_forms()
        self.solve(inputs.drawing(inputs.rng_for(run.seed, "solve-warm-up"), 10, 0.3, "free"))

    @classmethod
    def drawing(cls, seed: int, i: int) -> dict:
        """Drawing i: classes in equal thirds, 8-16 vertices, densities 0.15-0.35."""
        kind = inputs.CLASSES[i % 3]
        n = 8 + (i // 3) % 9
        density = cls.DENSITIES[(i // 27) % len(cls.DENSITIES)]
        return inputs.drawing(inputs.rng_for(seed, "solve", i), n, density, kind)

    def generate(self, run) -> None:
        # Drawings are made one at a time in `run`; the digest covers the first 100.
        docs = [self.drawing(run.seed, i) for i in range(100)]
        run.inputs_digest = inputs.digest(docs)

    def solve(self, doc: dict) -> Solution:
        gc = self.gc
        G = gc.graph_from_json_dict(doc)
        crossings = gc.crossings_of(G)
        chi, coloring = gc.chromatic_number(G)
        px, pseudo = gc.pseudo_geochromatic_number(G)
        lower = gc.geochromatic_lower_bound(G)
        x = gc.geochromatic_number(G, self.store, max_n=MAX_N)
        lifts = {}
        for method, lift in (("dist2", gc.lift_dist2), ("indep3n", gc.lift_independent),
                             ("smallchi", gc.lift_small_chi)):
            try:
                lifts[method] = lift(G, coloring)
            except self.refusals as exc:
                lifts[method] = exc
        alpha = None
        if isinstance(lifts["indep3n"], gc.LiftReport):  # the crossings are independent
            alpha = gc.find_noncollapsing_hom(G, chi) or gc.find_noncollapsing_hom(G, chi + 1)
            lifts["indep2n"] = gc.lift_independent_noncollapsing(G, alpha) if alpha else None
        else:
            lifts["indep2n"] = lifts["indep3n"]
        replay = [gc.is_proper(G, coloring), gc.is_pseudo_coloring(G, pseudo)]
        if x is not None:
            replay.append(gc.is_geometric_hom(G, x.target, x.witness))
        for report in lifts.values():
            if isinstance(report, gc.LiftReport):
                replay.append(gc.is_geometric_hom(G, gc.convex_clique(report.target_size), report.beta))
        return Solution(crossings, chi, coloring.colors, px, pseudo.colors, lower, x, lifts,
                        alpha, replay)

    def run(self, run) -> None:
        seen = set()
        run.inputs = max(200, round(self.PER_SECOND * run.seconds))
        for i in range(run.inputs):
            t = time.perf_counter()
            doc = self.drawing(run.seed, i)
            run.gen_s += time.perf_counter() - t
            ok, sol = run.op(lambda: self.solve(doc))
            with run.untraced():
                key = inputs.digest(doc)
                run.check(key not in seen, f"drawing {i} repeats an earlier one")
                seen.add(key)
                run.count("drawings")
                if ok:
                    self.check(run, doc, sol)

    def check(self, run, doc: dict, s: Solution) -> None:
        pts, edges = _points_edges(doc)
        crossings = oracle.crossing_pairs(pts, edges)
        run.check({c.edges() for c in s.crossings} == set(crossings), "crossings_of disagrees with the oracle")
        run.check(all(s.replay), "a package verifier rejected the package's own witness")
        run.check(oracle.is_proper(edges, s.coloring) and max(s.coloring, default=0) <= s.chi,
                  "the chi coloring is not a proper chi-coloring")
        run.check(oracle.is_pseudo(edges, crossings, s.pseudo) and max(s.pseudo, default=0) <= s.px,
                  "the X' coloring is not a pseudo-coloring with X' colors")
        run.check(s.chi <= s.px <= s.lower, f"chi <= X' <= lower bound fails: {s.chi}, {s.px}, {s.lower}")
        if s.x is not None:
            run.count("x_resolved")
            run.check(s.lower <= s.x.n <= MAX_N, f"X = {s.x.n} outside [{s.lower}, {MAX_N}]")
            run.check(s.x.target.canonical_form in self.forms.get(s.x.n, ()),
                      "the X target is not a catalog structure")
            run.check(oracle.is_hom(edges, crossings, s.x.witness.images, s.x.target.adjacency,
                                    s.x.target.crossings), "the X witness is not a geometric homomorphism")
        elif s.lower <= MAX_N:
            run.count("x_exhausted")
        holds = _hypotheses(oracle.min_crossing_distance(edges, crossings), s.chi)
        for method, outcome in s.lifts.items():
            run.count("lifts_attempted")
            if isinstance(outcome, self.gc.LiftReport):
                run.count("lifts_applied")
                m = outcome.target_size
                colors = s.chi if method != "indep2n" else s.alpha.n
                run.check(holds[method] and m == _target_size(method, colors),
                          f"{method} lifted a drawing outside its hypothesis, or to K{m}")
                run.check(oracle.is_hom(edges, crossings, outcome.beta.images, *_convex(m)),
                          f"the {method} lift is not a geometric homomorphism into convex K{m}")
                if m <= MAX_N:
                    run.check(s.x is not None and s.x.n <= m, f"X is unresolved or above the {method} lift's K{m}")
            elif outcome is None:
                run.check(holds[method], "indep2n searched a drawing with dependent crossings")
            else:
                run.check(not holds[method], f"{method} refused a drawing that meets its hypothesis: {outcome!r}")
        if holds["indep2n"]:
            run.count("noncollapsing_searches")
            if s.alpha is not None:
                run.count("noncollapsing_found")
                run.check(oracle.is_proper(edges, s.alpha.colors) and _noncollapsing(crossings, s.alpha.colors),
                          "find_noncollapsing_hom returned a collapsing or improper coloring")


# --- catalog-build ------------------------------------------------------------


class CatalogBuild:
    """Enumerate K3-K6 into an empty directory, persist them, load them back."""

    name = "catalog-build"

    def setup(self, run) -> None:
        self.gc = importlib.import_module("geochrom")
        self.dir = run.scratch("catalogs")

    def generate(self, run) -> None:
        self.committed = {}
        for n in CATALOG_SIZES:
            doc = json.loads((run.committed_catalogs / f"k{n}.catalog.json").read_text())
            self.committed[n] = {item["canonical"] for item in doc["entries"]}
        run.inputs_digest = inputs.digest(list(CATALOG_SIZES))

    def build(self, run):
        built, loaded = {}, {}
        store = self.gc.CatalogStore(self.dir)
        for n in CATALOG_SIZES:
            with run.span(f"catalog.build.k{n}"):
                built[n] = store.get(n)
        fresh = self.gc.CatalogStore(self.dir, build_missing=False)
        for n in CATALOG_SIZES:
            with run.span(f"catalog.load.k{n}"):
                loaded[n] = fresh.get(n)
        return built, loaded

    def run(self, run) -> None:
        ok, result = run.op(lambda: self.build(run))
        run.inputs = 1
        if ok:
            with run.untraced():
                self.check(run, *result)

    def check(self, run, built: dict, loaded: dict) -> None:
        gc = self.gc
        for n in CATALOG_SIZES:
            cat = built[n]
            run.count("catalog_kept", len(cat.entries))
            run.check(len(cat.entries) == CATALOG_COUNTS[n], f"K{n}: {len(cat.entries)} structures")
            run.check(cat.canonical_forms() == loaded[n].canonical_forms(), f"K{n} does not load back as built")
            run.check({e.structure.hex for e in cat.entries} == self.committed[n],
                      f"K{n} differs from the committed catalog")
            run.check((self.dir / f"k{n}.catalog.json").is_file(), f"K{n} was not persisted")
            for e in cat.entries:
                pts = [(p.x, p.y) for p in e.witness.points]
                run.check(set(oracle.crossing_pairs(pts, e.witness.edges)) == set(e.structure.crossings),
                          f"a K{n} witness does not realize its structure")
            edges, crossings = _convex(n)
            convex = gc.CrossingStructure(n, edges, crossings)
            run.check(convex.canonical_form in cat.canonical_forms(), f"convex K{n} is not in the catalog")
        for tag in ("figure1_left", "figure1_right"):
            form = gc.crossing_structure(gc.figure_graphs(tag)).canonical_form
            run.check(form in built[6].canonical_forms(), f"{tag} is not in the K6 catalog")


# --- canon-symmetric ----------------------------------------------------------


class CanonSymmetric:
    """canonical_form of a freshly built CrossingStructure, symmetric and typical inputs."""

    name = "canon-symmetric"
    RANDOM = 200
    RELABEL_CHECK_S = 0.05  # re-canonicalize a relabeled copy when this cheap

    def setup(self, run) -> None:
        self.gc = gc = importlib.import_module("geochrom")
        gc.CrossingStructure(3, [(0, 1), (1, 2)], []).canonical_form

    def generate(self, run) -> None:
        gc = self.gc
        # Convex K9 (about 20 s) is left out so that a run stays well under a
        # minute; star_crossing(9) remains as the heavy symmetric input.
        graphs = [(f"convex K{n}", gc.convex_clique(n)) for n in range(4, 9)]
        graphs += [(f"star_crossing({k})", gc.star_crossing(k)[0]) for k in range(1, 10)]
        graphs += [(f"separation_family({n})", gc.separation_family(n)) for n in range(1, 5)]
        graphs += [(tag, gc.figure_graphs(tag)) for tag in gc.FIGURE_TAGS]
        self.expected = {}
        k6 = json.loads((run.committed_catalogs / "k6.catalog.json").read_text())
        for j, item in enumerate(k6["entries"]):
            graphs.append((f"K6 witness {j}", gc.graph_from_json_dict(item["witness"])))
            self.expected[f"K6 witness {j}"] = item["canonical"]
        for j in range(self.RANDOM):
            doc = inputs.drawing(inputs.rng_for(run.seed, "canon", j), 7 + j % 6, 0.3 + 0.05 * (j % 5), "free")
            graphs.append((f"random {j}", gc.graph_from_json_dict(doc)))
        # These three exceed the candidate cap today; they stay in as failures.
        graphs += [("convex K11", gc.convex_clique(11)), ("convex K12", gc.convex_clique(12)),
                   ("star_crossing(11)", gc.star_crossing(11)[0])]
        # star_crossing(1) is the convex K4 drawing: each drawing is used once.
        docs, self.inputs = {}, []
        for label, G in graphs:
            doc = gc.graph_to_json_dict(G)
            key = inputs.digest(doc)
            if key not in docs:
                docs[key] = doc
                self.inputs.append((label, G))
        run.inputs_digest = inputs.digest(list(docs.values()))

    def run(self, run) -> None:
        gc = self.gc
        forms = {}
        for label, G in self.inputs:
            structure = gc.crossing_structure(G)
            ok, form = run.op(lambda: structure.canonical_form)
            if not ok:
                if isinstance(form, RuntimeError):
                    run.count("cap_errors")
                continue
            forms[label] = form
            with run.untraced():
                self.check(run, label, structure, form, run.last_seconds())
        run.inputs = len(self.inputs)
        with run.untraced():
            k6 = [f for label, f in forms.items() if label.startswith("K6 witness")]
            run.check(len(set(k6)) == len(k6), "two K6 catalog witnesses share a canonical form")
            if "convex K6" in forms and "figure1_right" in forms:
                run.check(forms["convex K6"] == forms["figure1_right"], "convex K6 drawings differ in form")

    def check(self, run, label: str, structure, form: bytes, seconds: float) -> None:
        if label in self.expected:
            run.check(form.hex() == self.expected[label], f"{label} differs from its catalog form")
        if seconds < self.RELABEL_CHECK_S:
            rng = inputs.rng_for(run.seed, "relabel", label)
            perm = list(range(structure.n))
            rng.shuffle(perm)
            copy = self.gc.CrossingStructure(
                structure.n,
                [(perm[u], perm[v]) for u, v in structure.adjacency],
                [((perm[a], perm[b]), (perm[c], perm[d])) for (a, b), (c, d) in structure.crossings],
            )
            run.check(copy.canonical_form == form, f"{label}: relabeling changes the canonical form")


# --- cli-batch ----------------------------------------------------------------


class CliBatch:
    """A fixed script of fresh `python -m geochrom.cli` processes, one at a time."""

    name = "cli-batch"
    DRAWINGS = 8
    # --min-dist 1 and 2 run the generator's rejection loop, whose length varies
    # with the seed. Six of 111 invocations is few enough that p90 (ten beyond)
    # stays among the ordinary verbs instead of on the gen random step.
    RANDOM_MIN_DIST = (0,) * 4 + (1,) * 3 + (2,) * 3
    NEGATIVE = ("DistanceTooSmall", "CrossingsNotIndependent", "CollapsedCrossingPair", "ChiOutOfRange")

    def setup(self, run) -> None:
        self.dir = run.scratch("cli")
        self.catalogs = run.copy_catalogs()
        self.env = dict(os.environ, PYTHONPATH=str(run.src))
        self.invoke(None, ["gen", "figure6"])

    def generate(self, run) -> None:
        self.docs = []
        for i in range(self.DRAWINGS):
            doc = inputs.drawing(inputs.rng_for(run.seed, "cli", i), 8 + i, 0.3, inputs.CLASSES[i % 3])
            (self.dir / f"g{i}.json").write_text(json.dumps(doc))
            (self.dir / f"id{i}.json").write_text(json.dumps(list(range(len(doc["vertices"])))))
            self.docs.append(doc)
        self.catalog_entries = {}
        for n in CATALOG_SIZES:
            for item in json.loads((self.catalogs / f"k{n}.catalog.json").read_text())["entries"]:
                self.catalog_entries[item["canonical"]] = item["witness"]
        run.inputs_digest = inputs.digest(self.docs)
        run.inputs = len(self.docs)

    def invoke(self, run, args: list[str], ok_codes=(0,)):
        """One CLI process; returns (exit code, parsed stdout or text, stderr) or None if it failed."""
        argv = [sys.executable, "-m", "geochrom.cli", *args]
        call = lambda: subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True,
                                      text=True, timeout=120)
        if run is None:
            call()
            return None
        span = "cli." + args[0] + (".random" if args[:2] == ["gen", "random"] else "")
        ok, proc = run.op(call, span=span)
        if not ok:
            return None
        if proc.returncode not in ok_codes:
            run.fail_last(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[:200]}")
            return None
        out = proc.stdout
        if args[0] != "render" and proc.returncode == 0 and "-o" not in args:
            try:
                out = json.loads(proc.stdout)
            except json.JSONDecodeError:
                run.check(False, f"{' '.join(args)} printed no JSON")
                return None
        return proc.returncode, out, proc.stderr

    def run(self, run) -> None:
        for i, doc in enumerate(self.docs):
            self.drawing(run, i, doc)
        for tag in ("figure1_left", "figure1_right", "figure2_left", "figure2_right",
                    "figure3_left", "figure3_right", "figure6"):
            res = self.invoke(run, ["gen", tag])
            with _shape(run, f"gen {tag}", res):
                self.check_graph(run, res[1], tag)
        for k in (2, 5, 9):
            res = self.invoke(run, ["gen", "star", "--k", str(k)])
            with _shape(run, f"gen star --k {k}", res):
                self.check_graph(run, res[1], f"star {k}", vertices=k + 3, crossings=k)
        for n in (1, 2, 3):
            res = self.invoke(run, ["gen", "separation", "--n", str(n)])
            with _shape(run, f"gen separation --n {n}", res):
                self.check_graph(run, res[1], f"separation {n}", vertices=3 * (n + 1))
        rng = inputs.rng_for(run.seed, "cli-random")
        for dist in self.RANDOM_MIN_DIST:
            seed = str(rng.randrange(10**9))
            res = self.invoke(run, ["gen", "random", "--vertices", "12", "--prob", "0.25",
                                    "--min-dist", str(dist), "--seed", seed])
            with _shape(run, f"gen random --min-dist {dist}", res):
                self.check_graph(run, res[1], f"random --min-dist {dist}", vertices=12, min_dist=dist)

    def check_graph(self, run, doc, what: str, vertices=None, crossings=None, min_dist=0) -> None:
        pts, edges = _points_edges(doc)
        found = oracle.crossing_pairs(pts, edges)
        run.check(vertices is None or len(pts) == vertices, f"gen {what}: {len(pts)} vertices")
        run.check(crossings is None or len(found) == crossings, f"gen {what}: {len(found)} crossings")
        run.check(oracle.min_crossing_distance(edges, found) >= min_dist, f"gen {what}: crossings too close")

    def drawing(self, run, i: int, doc: dict) -> None:
        g = f"g{i}.json"
        pts, edges = _points_edges(doc)
        crossings = oracle.crossing_pairs(pts, edges)
        chi = px = lower = x = None
        res = self.invoke(run, ["chi", g])
        with _shape(run, f"chi {g}", res):
            chi, colors = res[1]["chi"], res[1]["coloring"]
            run.check(oracle.is_proper(edges, colors) and max(colors, default=0) <= chi, f"chi {g}: bad coloring")
        res = self.invoke(run, ["px", g])
        with _shape(run, f"px {g}", res):
            px, colors = res[1]["px"], res[1]["coloring"]
            run.check(oracle.is_pseudo(edges, crossings, colors) and max(colors, default=0) <= px,
                      f"px {g}: bad pseudo-coloring")
        res = self.invoke(run, ["bound", "lower", g])
        with _shape(run, f"bound lower {g}", res):
            lower = res[1]["lower_bound"]
            run.check(all(len(p["pair"]) == 2 and p["rules"] for p in res[1]["pairs"]), f"bound lower {g}: bad pairs")
        res = self.invoke(run, ["x", g, "--no-build", "--max-n", str(MAX_N), "--catalog", str(self.catalogs)],
                          ok_codes=(0, 1))
        with _shape(run, f"x {g}", res):
            if res[0] == 0:
                x = res[1]["x"]
                if x <= 2:  # K1 and K2 are built in, with no catalog file
                    t_edges, t_crossings = list(itertools.combinations(range(x), 2)), []
                else:
                    witness = self.catalog_entries.get(res[1]["target"]["canonical"], {"vertices": [], "edges": []})
                    t_pts, t_edges = _points_edges(witness)
                    t_crossings = oracle.crossing_pairs(t_pts, t_edges)
                    run.check(len(t_pts) == x, f"x {g}: target not in the K{x} catalog")
                run.check(oracle.is_hom(edges, crossings, res[1]["map"], t_edges, t_crossings), f"x {g}: bad witness")
            else:
                run.check(json.loads(res[1]) == {"status": "unresolved", "searched_to": MAX_N},
                          f"x {g}: exit 1 without an unresolved report")
        if None not in (chi, px, lower):
            run.check(chi <= px <= lower and (x is None or lower <= x), f"{g}: chi <= X' <= lower <= X fails")
        res = self.invoke(run, ["render", g])
        with _shape(run, f"render {g}", res):
            run.check(res[1].startswith("<svg") and res[1].count('r="3.5"') == len(pts), f"render {g}: bad SVG")
        holds = _hypotheses(oracle.min_crossing_distance(edges, crossings), chi or 0)
        lifted = None
        for method in LIFT_METHODS:
            res = self.invoke(run, ["lift", g, "--method", method, "-o", f"lift{i}{method}.json"], ok_codes=(0, 1))
            with _shape(run, f"lift {method} {g}", res):
                if res[0] == 0:
                    report = json.loads((self.dir / f"lift{i}{method}.json").read_text())
                    m = report["target_size"]
                    run.check(holds[method] and oracle.is_hom(edges, crossings, report["map"], *_convex(m)),
                              f"lift {method} {g}: bad map into convex K{m}")
                    lifted = lifted or (method, m)
                else:
                    kind = json.loads(res[2])["kind"]
                    run.check(kind in self.NEGATIVE, f"lift {method} {g}: exit 1 with {kind}")
                    run.check(not holds[method] or kind == "CollapsedCrossingPair",
                              f"lift {method} {g}: refused although its hypothesis holds ({kind})")
        method, m = lifted or (None, 5)
        res = self.invoke(run, ["gen", "convex", "--n", str(m), "-o", f"convex{i}.json"])
        with _shape(run, f"gen convex --n {m}", res):
            self.check_graph(run, json.loads((self.dir / f"convex{i}.json").read_text()), f"convex {m}",
                             vertices=m, crossings=math.comb(m, 4))
        # A lift's map into the convex clique, or else the identity map of the drawing.
        target, mapping = (f"convex{i}.json", f"lift{i}{method}.json") if lifted else (g, f"id{i}.json")
        res = self.invoke(run, ["verify", g, target, mapping])
        with _shape(run, f"verify {g} {target}", res):
            run.check(res[1] == {"graph_hom": True, "geometric_hom": True}, f"verify {g} {target}: {res[1]}")

    def probes(self, run) -> dict:
        """Interpreter start and package import, each the median of five fresh processes."""
        def wall(code):
            samples = []
            for _ in range(5):
                t = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True, capture_output=True)
                samples.append(time.perf_counter() - t)
            return sorted(samples)[2]

        interpreter = wall("pass")
        return {"interpreter_ms": interpreter * 1e3, "import_ms": (wall("import geochrom.cli") - interpreter) * 1e3}


WORKLOADS = {w.name: w for w in (SolveCorpus, CatalogBuild, CanonSymmetric, CliBatch)}
