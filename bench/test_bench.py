"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer, inside, percentile, self_times  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))  # nearest rank: p90 is the 90th value, ten lie beyond
    assert percentile(xs, 0.9) == 90
    assert percentile(list(range(1, 21)), 0.5) == 10
    with pytest.raises(ValueError):
        percentile(list(range(1, 100)), 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(1, 20)), 0.5)


def test_percentile_ignores_order():
    xs = [float(x) for x in range(200)]
    assert percentile(list(reversed(xs)), 0.9) == percentile(xs, 0.9) == 179.0


def test_quantile_falls_back_and_never_reports_a_failure():
    assert metrics.quantile([2.0], 0.9) == 2.0
    assert metrics.quantile([], 0.5) == 0.0
    assert metrics.quantile([1.0, 3.0, math.inf], 0.9) == 3.0


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("d", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_pauses():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.paused():
            with tracer.span("hidden"):
                pass
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert inside(tracer.spans, lambda n: n == "outer") == [True, True]


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(metrics.PER_LAYER)


def test_drawings_meet_their_crossing_constraint():
    for i, kind in enumerate(inputs.CLASSES * 4):
        doc = inputs.drawing(inputs.rng_for(7, "test", i), 12, 0.35, kind)
        pts = [(v["x"], v["y"]) for v in doc["vertices"]]
        edges = [tuple(e) for e in doc["edges"]]
        dist = oracle.min_crossing_distance(edges, oracle.crossing_pairs(pts, edges))
        assert dist >= {"free": 0, "independent": 1, "dist2": 2}[kind]


def test_inputs_depend_only_on_the_seed():
    a = inputs.drawing(inputs.rng_for(3, "x"), 9, 0.3, "dist2")
    assert a == inputs.drawing(inputs.rng_for(3, "x"), 9, 0.3, "dist2")
    assert a != inputs.drawing(inputs.rng_for(4, "x"), 9, 0.3, "dist2")


def test_convex_relation_counts_every_quadruple_once():
    edges, crossings = oracle.convex_clique_relation(6)
    assert len(edges) == 15 and len(crossings) == 15
    pts = [(0, 10), (9, 3), (6, -8), (-6, -8), (-9, 3)]  # convex pentagon in hull order
    assert sorted(oracle.crossing_pairs(pts, oracle.convex_clique_relation(5)[0])) == sorted(
        oracle.convex_clique_relation(5)[1])
