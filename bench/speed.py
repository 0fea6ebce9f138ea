"""Machine-speed correction for the benchmark's timings.

On a shared host a CPU's speed changes by up to 1.8x from one ten-second
stretch to the next, for every program alike. A timer therefore runs a
fixed reference loop 20 times a second throughout a run, on the same CPU
as the measured work, and every timing is reported as

    (wall time - reference loops run inside it) * NOMINAL_S / (mean reference loop time around it)

that is, in milliseconds or seconds of a CPU on which the reference loop
takes exactly NOMINAL_S. A program change moves these figures as it moves
wall time; a slower or busier host does not. Per-layer times of a traced
run are scaled by the run's mean reference loop instead. Raw wall times go
to the run's metadata line.
"""

from __future__ import annotations

import bisect
import os
import signal
import time

NOMINAL_S = 0.0005
PERIOD_S = 0.05


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict updates."""
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += (i * 31) % 17
    return total


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference loop
    measures the CPU that runs the work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedMeter:
    """Samples the reference loop on a timer; corrects intervals by it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_loop()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._tick(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correct(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at nominal speed; call once the run is over."""
        starts = self.starts
        inside = sum(self.durations[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)])
        # The speed of the interval: the samples within one period of it.
        a = bisect.bisect_left(starts, t0 - PERIOD_S)
        b = bisect.bisect_right(starts, t1 + PERIOD_S)
        if a == b:
            a = max(min(a, len(starts)) - 1, 0)
            b = a + 1
        around = self.durations[a:b]
        return (t1 - t0 - inside) * NOMINAL_S / (sum(around) / len(around))

    def mean_s(self) -> float:
        return sum(self.durations) / len(self.durations)
