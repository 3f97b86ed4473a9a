"""Timings stated at a reference processor speed.

On a shared machine the same Python code runs up to 40% slower while
neighbours are busy, in stretches from under a second to longer than a
whole benchmark run, so neither a median nor a minimum over repetitions
removes the drift.  A :class:`Speedometer` times a fixed pure-Python
kernel, which does not depend on the program under test, at the edges
of a timed phase and every :data:`SAMPLE_EVERY_S` inside it, and states
each stretch of the phase at the speed sampled around it.
"""

from __future__ import annotations

import statistics
import time

#: One sample's duration on the reference machine, in seconds.
REFERENCE_SAMPLE_S = 4.0e-4
#: Samples taken at each edge of a timed phase.
EDGE_SAMPLES = 100
#: Seconds between two samples inside a timed phase.
SAMPLE_EVERY_S = 0.025


def _kernel():
    rows = [{"id": i, "name": f"c{i % 17}", "qty": i * 3 % 11}
            for i in range(60)]
    index: dict[str, list[int]] = {}
    for row in rows:
        index.setdefault(row["name"], []).append(row["qty"])
    return sorted((key, sum(values)) for key, values in index.items())


class Speedometer:
    """Samples the processor's speed and accumulates reference time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent sampling inside the timed phase.
        self.inside_s = 0.0
        #: The timed phase so far, in seconds at the reference speed.
        self.reference_s = 0.0
        #: Slowdown over the latest samples.
        self.local = 1.0
        self._since = 0.0

    def sample(self, count: int = EDGE_SAMPLES) -> float:
        """Take ``count`` samples; returns the wall seconds they took."""
        clock = time.perf_counter
        started = clock()
        for _ in range(count):
            start = clock()
            for _ in range(10):
                _kernel()
            self.samples.append(clock() - start)
        self.local = (
            statistics.median(self.samples[-5:]) / REFERENCE_SAMPLE_S
        )
        return clock() - started

    def slowdown(self) -> float:
        """Trimmed mean sample time over the reference sample time."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return statistics.fmean(kept) / REFERENCE_SAMPLE_S

    def start(self) -> None:
        """Begin the timed phase (after the leading edge samples)."""
        self._since = time.perf_counter()

    def checkpoint(self) -> None:
        """Close the stretch since the last checkpoint and sample.

        The stretch is stated at the mean of the slowdowns sampled just
        before and just after it; the sample itself is left out.
        """
        ended = time.perf_counter()
        before = self.local
        self.inside_s += self.sample(1)
        self.reference_s += (ended - self._since) / ((before + self.local) / 2)
        self._since = time.perf_counter()

    def stop(self) -> None:
        """End the timed phase; the last stretch takes the latest speed."""
        self.reference_s += (time.perf_counter() - self._since) / self.local
