"""Spans around calls into geochrom, and the statistics the benchmark reports.

A traced run replaces public functions of the package with wrappers that
record one span per call: name, start, end and the span that was open when
the call began. The wrappers are installed in every geochrom module that
holds a reference to the function, so a call from `geochromatic_number` to
`find_geometric_hom`, or from `geochromatic_lower_bound` to
`chromatic_number`, is attributed to the callee's layer. Untraced runs
install nothing.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name). Geometry predicates are left unwrapped:
# they run millions of times and their cost belongs to their callers.
WRAPPED = (
    ("graphs", "graph_from_json_dict", "graphs.load"),
    ("graphs", "crossings_of", "graphs.crossings_of"),
    ("graphs", "crossing_structure", "graphs.crossing_structure"),
    ("catalog", "enumerate_clique_structures", "catalog.enumerate"),
    ("catalog", "convex_clique", "catalog.convex_clique"),
    ("homomorphism", "chromatic_number", "homomorphism.chromatic_number"),
    ("homomorphism", "pseudo_geochromatic_number", "homomorphism.pseudo_geochromatic_number"),
    ("homomorphism", "find_geometric_hom", "homomorphism.find_geometric_hom"),
    ("homomorphism", "geochromatic_number", "homomorphism.geochromatic_number"),
    ("homomorphism", "is_graph_hom", "homomorphism.verify"),
    ("homomorphism", "is_geometric_hom", "homomorphism.verify"),
    ("homomorphism", "is_proper", "homomorphism.verify"),
    ("homomorphism", "is_pseudo_coloring", "homomorphism.verify"),
    ("obstructions", "non_identifiable_pairs", "obstructions.non_identifiable_pairs"),
    ("obstructions", "geochromatic_lower_bound", "obstructions.geochromatic_lower_bound"),
    ("lifts", "lift_dist2", "lifts.dist2"),
    ("lifts", "lift_independent_noncollapsing", "lifts.indep2n"),
    ("lifts", "lift_independent", "lifts.indep3n"),
    ("lifts", "lift_small_chi", "lifts.smallchi"),
    ("lifts", "find_noncollapsing_hom", "lifts.find_noncollapsing_hom"),
)


class Tracer:
    """In-memory span recorder. Spans are (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.recording = True

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, p = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), p)

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks answers."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the WRAPPED functions and the structure canonicalization."""
        pkg = [m for k, m in sys.modules.items() if k == "geochrom" or k.startswith("geochrom.")]
        for mod_name, attr, name in WRAPPED:
            original = getattr(sys.modules[f"geochrom.{mod_name}"], attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            wrapper = self._wrap(name, original)
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        catalog = sys.modules["geochrom.catalog"]
        self._set(catalog.CatalogStore, "get", self._wrap("catalog.get", catalog.CatalogStore.get))
        self._wrap_canonical_form(sys.modules["geochrom.graphs"].CrossingStructure)

    def _wrap_canonical_form(self, cls) -> None:
        # Only computations are spans; reads of the memoized form are not.
        getter = cls.canonical_form.fget
        tracer = self

        def canonical_form(structure):
            if getattr(structure, "_canonical", None) is not None:
                return getter(structure)
            with tracer.span("graphs.canonical_form"):
                return getter(structure)

        self._set(cls, "canonical_form", property(canonical_form))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def span_cost_s(calls: int = 20000) -> float:
    """What recording one span adds to a call, measured here and now (best of three)."""
    tracer = Tracer()

    def plain():
        return None

    traced = tracer._wrap("cost", plain)
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t)) / calls)
        tracer.spans.clear()
    return best


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def inside(spans, pred) -> list[bool]:
    """For each span: does it, or an enclosing span, have a name matching `pred`?"""
    out: list[bool] = []
    for name, _, _, parent in spans:
        out.append(pred(name) or (parent >= 0 and out[parent]))
    return out


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of `values`, by the nearest-rank rule.

    Raises ValueError unless at least ten samples lie beyond it, so a
    reported tail always rests on ten or more observations.
    """
    xs = sorted(values)
    rank = math.ceil(q * len(xs))  # 1-based nearest rank
    if len(xs) - rank < 10:
        raise ValueError(f"{len(xs)} samples leave fewer than 10 beyond the {q:.2f} quantile")
    return xs[rank - 1]
