"""The CPU speed a measured process ran at, to scale its times to a reference speed.

The reference host shares its vCPUs, and its speed drifts by a third in
phases of seconds to a minute, more than any bound a half-minute run could
hold. While an operation runs, a SIGALRM handler in the measured process
times a fixed pure-Python loop every ``INTERVAL_S`` seconds. A time scaled
by ``REFERENCE_LOOP_S`` over the median loop time of the samples taken
during it reads as if the host had run at the reference speed throughout.
The loop costs under 1% of the process's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.05
LOOP_ITERATIONS = 3000
# The loop's time on the reference host (2 shared vCPUs, Python 3.11.7).
REFERENCE_LOOP_S = 0.0003
# Samples within this many seconds of an interval count towards its speed.
WINDOW_S = 0.5


def loop_seconds() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = perf_counter()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return perf_counter() - start


class SpeedProbe:
    """Loop timings taken every INTERVAL_S seconds while started."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        at = perf_counter()
        self.took.append(loop_seconds())
        self.at.append(at)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_LOOP_S over the median loop time near [start, end].

        Falls back to every sample, then to a loop timed now, when the
        interval is too short to hold one.
        """
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        took = self.took[lo:hi] or self.took or array("d", [loop_seconds()])
        return REFERENCE_LOOP_S / statistics.median(took)

    def scaled(self, intervals: list[tuple[float, float]]) -> float:
        """The summed length of the (start, end) intervals, each scaled by its factor."""
        return sum((end - start) * self.factor(start, end) for start, end in intervals)

    def save(self, path: Path) -> None:
        path.write_text("".join(f"{a!r} {t!r}\n" for a, t in zip(self.at, self.took)))

    @classmethod
    def load(cls, path: Path) -> "SpeedProbe":
        probe = cls()
        for line in path.read_text().splitlines():
            a, t = line.split()
            probe.at.append(float(a))
            probe.took.append(float(t))
        return probe


# Runs `python -m quandles ARGS` under a probe: python -c BOOTSTRAP BENCH SAMPLES ARGS...
BOOTSTRAP = """
import runpy, sys
from pathlib import Path
sys.path.append(sys.argv[1])
from speed import SpeedProbe
samples = Path(sys.argv[2])
sys.argv = ["quandles", *sys.argv[3:]]
probe = SpeedProbe()
probe.start()
try:
    runpy.run_module("quandles", run_name="__main__", alter_sys=True)
finally:
    probe.stop()
    probe.save(samples)
"""
