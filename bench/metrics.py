"""Names, units and computation of the end-to-end and per-layer metrics.

Every run reports every metric of its kind, so that runs of different
workloads can be compared name by name. A per-layer metric that a
workload does not exercise reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median

from spans import inside, percentile, self_times

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

VERBS = ("chi", "px", "x", "bound", "lift", "verify", "gen", "render")

PER_LAYER = (
    ("graphs.load.self_s", "s", "lower"),
    ("graphs.crossings_of.calls", "count", "lower"),
    ("graphs.crossings_of.self_s", "s", "lower"),
    ("graphs.canonical_form.calls", "count", "lower"),
    ("graphs.canonical_form.self_s", "s", "lower"),
    ("graphs.canonical_form.max_ms", "ms", "lower"),
    ("graphs.canonical_form.cap_errors", "count", "lower"),
    ("catalog.enumerate.k5_s", "s", "lower"),
    ("catalog.enumerate.k6_s", "s", "lower"),
    ("catalog.kept_per_canonical_call", "ratio", "higher"),
    ("catalog.persist_s", "s", "lower"),
    ("catalog.load_s", "s", "lower"),
    ("homomorphism.chromatic_number.self_s", "s", "lower"),
    ("homomorphism.pseudo_geochromatic_number.self_s", "s", "lower"),
    ("homomorphism.find_geometric_hom.calls", "count", "lower"),
    ("homomorphism.find_geometric_hom.self_s", "s", "lower"),
    ("homomorphism.find_geometric_hom.p90_ms", "ms", "lower"),
    ("homomorphism.geochromatic_number.self_s", "s", "lower"),
    ("homomorphism.x.resolved_ratio", "ratio", "higher"),
    ("homomorphism.x.exhausted", "count", "lower"),
    ("homomorphism.verify.self_s", "s", "lower"),
    ("obstructions.geochromatic_lower_bound.self_s", "s", "lower"),
    ("obstructions.geochromatic_lower_bound.p90_ms", "ms", "lower"),
    ("lifts.dist2.self_s", "s", "lower"),
    ("lifts.indep2n.self_s", "s", "lower"),
    ("lifts.indep3n.self_s", "s", "lower"),
    ("lifts.smallchi.self_s", "s", "lower"),
    ("lifts.find_noncollapsing_hom.self_s", "s", "lower"),
    ("lifts.noncollapsing.found_ratio", "ratio", "higher"),
    ("lifts.applicable_ratio", "ratio", "higher"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *((f"cli.verb.{verb}.p50_ms", "ms", "lower") for verb in VERBS),
    ("generators.gen_random.p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def quantile(values, q: float) -> float:
    """`percentile` when enough samples lie beyond it; otherwise nearest rank.

    Only catalog-build, with one operation per run, takes the fallback.
    Failed operations sort last; a quantile that lands on one reads as
    the slowest measured operation.
    """
    if not values:
        return 0.0
    try:
        value = percentile(values, q)
    except ValueError:
        xs = sorted(values)
        value = xs[max(math.ceil(q * len(xs)), 1) - 1]
    return value if math.isfinite(value) else max(v for v in values if math.isfinite(v))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, counts, extra) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run and the workload's counts."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for (name, start, end, _), s in zip(spans, own):
        calls[name] += 1
        self_s[name] += s
        durations[name].append(end - start)

    def under(pred):
        return [i for i, hit in enumerate(inside(spans, pred)) if hit]

    building = under(lambda n: n.startswith("catalog.build."))
    lower_bound = under(lambda n: n == "obstructions.geochromatic_lower_bound")

    def enumerate_s(k):
        return sum(spans[i][2] - spans[i][1] for i in under(lambda n: n == f"catalog.build.k{k}")
                   if spans[i][0] == "catalog.enumerate")

    def p50(names):
        xs = [d for n in names for d in durations[n]]
        return median(xs) * 1e3 if xs else 0.0

    m = {
        "graphs.load.self_s": self_s["graphs.load"],
        "graphs.crossings_of.calls": calls["graphs.crossings_of"],
        "graphs.crossings_of.self_s": self_s["graphs.crossings_of"],
        "graphs.canonical_form.calls": calls["graphs.canonical_form"],
        "graphs.canonical_form.self_s": self_s["graphs.canonical_form"],
        "graphs.canonical_form.max_ms": max(durations["graphs.canonical_form"], default=0.0) * 1e3,
        "graphs.canonical_form.cap_errors": counts["cap_errors"],
        "catalog.enumerate.k5_s": enumerate_s(5),
        "catalog.enumerate.k6_s": enumerate_s(6),
        "catalog.kept_per_canonical_call": _ratio(
            counts["catalog_kept"], sum(spans[i][0] == "graphs.canonical_form" for i in building)),
        "catalog.persist_s": sum(own[i] for i in building if spans[i][0] == "catalog.get"),
        "catalog.load_s": sum(d for n, ds in durations.items() if n.startswith("catalog.load.") for d in ds),
        "homomorphism.chromatic_number.self_s": self_s["homomorphism.chromatic_number"],
        "homomorphism.pseudo_geochromatic_number.self_s": self_s["homomorphism.pseudo_geochromatic_number"],
        "homomorphism.find_geometric_hom.calls": calls["homomorphism.find_geometric_hom"],
        "homomorphism.find_geometric_hom.self_s": self_s["homomorphism.find_geometric_hom"],
        "homomorphism.find_geometric_hom.p90_ms": quantile(durations["homomorphism.find_geometric_hom"], 0.9) * 1e3,
        "homomorphism.geochromatic_number.self_s": self_s["homomorphism.geochromatic_number"],
        "homomorphism.x.resolved_ratio": _ratio(counts["x_resolved"], counts["drawings"]),
        "homomorphism.x.exhausted": counts["x_exhausted"],
        "homomorphism.verify.self_s": self_s["homomorphism.verify"],
        "obstructions.geochromatic_lower_bound.self_s": sum(
            own[i] for i in lower_bound if spans[i][0].startswith("obstructions.")),
        "obstructions.geochromatic_lower_bound.p90_ms": quantile(
            durations["obstructions.geochromatic_lower_bound"], 0.9) * 1e3,
        "lifts.dist2.self_s": self_s["lifts.dist2"],
        "lifts.indep2n.self_s": self_s["lifts.indep2n"],
        "lifts.indep3n.self_s": self_s["lifts.indep3n"],
        "lifts.smallchi.self_s": self_s["lifts.smallchi"],
        "lifts.find_noncollapsing_hom.self_s": self_s["lifts.find_noncollapsing_hom"],
        "lifts.noncollapsing.found_ratio": _ratio(counts["noncollapsing_found"], counts["noncollapsing_searches"]),
        "lifts.applicable_ratio": _ratio(counts["lifts_applied"], counts["lifts_attempted"]),
        "cli.interpreter_ms": extra.get("interpreter_ms", 0.0),
        "cli.import_ms": extra.get("import_ms", 0.0),
        "generators.gen_random.p50_ms": p50(["cli.gen.random"]),
        "trace.overhead_ratio": extra.get("overhead_ratio", 0.0),
    }
    for verb in VERBS:
        m[f"cli.verb.{verb}.p50_ms"] = p50([f"cli.{verb}"] + (["cli.gen.random"] if verb == "gen" else []))
    return m
