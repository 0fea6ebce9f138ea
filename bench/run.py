"""geochrom benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate, traced run with the same seed. The line before it records the
machine, a digest of the inputs, the time spent generating them and the raw
wall times. Times are corrected for the host's speed (see speed.py). The
exit code is 0 when every answer checked out, 1 when one did not, and 2
when the checkout has no package to run.

Every workload runs a fixed amount of work, so that memory use and the input
mix do not depend on speed: solve-corpus solves 400 drawings per second of
--seconds, and the other workloads ignore it. Temporary files live under
`.bench_work/` in the checkout and are removed on exit.

Tests of the benchmark's own helpers: python3 -m pytest bench
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import metrics
from spans import Tracer, span_cost_s
from speed import NOMINAL_S, SpeedMeter, pin_to_one_cpu
from workloads import CATALOG_SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this run's own set-up plus four fresh interpreters


class Run:
    """State of one benchmark run: timings, counts and correctness findings."""

    def __init__(self, seed: int, seconds: float, tracer: Tracer | None):
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.src = SRC
        self.committed_catalogs = ROOT / "tests" / ".catalog_cache"
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
        self.intervals: list[tuple[float, float]] = []  # raw start and end of each operation
        self.failed_ops: set[int] = set()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.counts: Counter = Counter()
        self.gen_s = 0.0
        self.inputs = 0
        self.inputs_digest = ""
        self.start = time.perf_counter()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir()
        return path

    def copy_catalogs(self) -> Path:
        """A private copy of the committed K3-K6 catalogs; nothing writes to tests/."""
        dest = self.scratch("committed-catalogs")
        for n in CATALOG_SIZES:
            shutil.copy(self.committed_catalogs / f"k{n}.catalog.json", dest)
        return dest

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def op(self, fn, span: str | None = None):
        """Time one operation. Returns (True, result) or (False, exception)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            with self.span(span) if span else nullcontext():
                value = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.intervals.append((t, time.perf_counter()))
            self.fail_last(f"{type(exc).__name__}: {exc}")
            return False, exc
        self.intervals.append((t, time.perf_counter()))
        return True, value

    def fail_last(self, why: str) -> None:
        self.failed_ops.add(len(self.intervals) - 1)
        self.failed += 1
        self.errors.append(why)

    def last_seconds(self) -> float:
        t0, t1 = self.intervals[-1]
        return t1 - t0

    def latencies(self, seconds) -> list[float]:
        """Each operation's time by `seconds(t0, t1)`; math.inf for a failed one."""
        return [math.inf if i in self.failed_ops else seconds(t0, t1)
                for i, (t0, t1) in enumerate(self.intervals)]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] += k


def machine() -> dict:
    """Where and on what this run happens."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "geochrom").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def setup_probe(args) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "geochrom" / "__init__.py").is_file():
        print(f"bench: no geochrom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, args.seconds, tracer)
    meter = SpeedMeter()
    pin_to_one_cpu()
    meter.start()
    try:
        if tracer:
            import geochrom  # noqa: F401  (wrappers go into loaded modules)
            tracer.install()
        t = time.perf_counter()
        workload.setup(run)
        setup = (t, time.perf_counter())
        if args.setup_only:
            meter.stop()
            print(json.dumps({"setup_s": meter.correct(*setup)}))
            return 0
        started = machine()
        import geochrom
        if not Path(geochrom.__file__).resolve().is_relative_to(SRC):
            print(f"bench: geochrom was imported from {geochrom.__file__}, not {SRC}", file=sys.stderr)
            return 2

        t = time.perf_counter()
        with run.untraced():
            workload.generate(run)
        run.gen_s += time.perf_counter() - t
        run.start = time.perf_counter()
        workload.run(run)
        wall_s = time.perf_counter() - run.start
        meter.stop()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

        ok = run.attempted - run.failed
        raw = run.latencies(lambda t0, t1: t1 - t0)
        raw_busy = sum(t1 - t0 for t0, t1 in run.intervals)
        busy_s = sum(meter.correct(t0, t1) for t0, t1 in run.intervals)
        meta = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace, **started,
            "inputs": run.inputs, "inputs_digest": run.inputs_digest, "inputs_generation_s": run.gen_s,
            "attempted": run.attempted, "wall_s": wall_s, "busy_s": busy_s,
            "reference_loop_ms": meter.mean_s() * 1e3,
            "raw_op_p50_ms": metrics.quantile(raw, 0.5) * 1e3,
            "raw_op_p90_ms": metrics.quantile(raw, 0.9) * 1e3,
            "raw_ops_per_s": ok / raw_busy,
            "counts": dict(run.counts), "errors": run.errors[:10],
            "problems": run.problems[:10], "problem_count": len(run.problems),
        }
        if tracer:
            tracer.uninstall()
            scale = NOMINAL_S / meter.mean_s()  # one correction for the whole traced run
            extra = {}
            if args.workload == "cli-batch":
                extra = {k: v * scale for k, v in workload.probes(run).items()}
            # Untraced time is the traced time less what the recorded spans measurably cost.
            recorded = sum(1 for _, t0, _, _ in tracer.spans if t0 >= run.start)
            extra["overhead_ratio"] = raw_busy / (raw_busy - recorded * span_cost_s())
            spans = [(name, t0 * scale, t1 * scale, parent) for name, t0, t1, parent in tracer.spans]
            values = metrics.per_layer(spans, run.counts, extra)
            names = metrics.PER_LAYER
            meta["spans"] = len(tracer.spans)
        else:
            samples = [meter.correct(*setup)] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            meta["setup_samples_s"] = samples
            latencies = run.latencies(meter.correct)
            values = {
                "setup_s": median(samples),
                "peak_rss_mb": peak_rss_mb,
                "op_p50_ms": metrics.quantile(latencies, 0.5) * 1e3,
                "op_p90_ms": metrics.quantile(latencies, 0.9) * 1e3,
                "ops_per_s": ok / busy_s,
            }
            names = metrics.END_TO_END
        correct = not run.problems
        print(json.dumps({"meta": meta}))
        print(json.dumps({
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
        }))
        if not correct:
            print(f"bench: {len(run.problems)} wrong answers, first: {run.problems[0]}", file=sys.stderr)
        return 0 if correct else 1
    finally:
        meter.stop()
        run.close()


if __name__ == "__main__":
    sys.exit(main())
