"""Host time measured against the machine's own speed during the run.

On a shared machine the speed available to one process drifts by tens
of percent within a minute (busy sibling hyperthreads, frequency
changes).  :class:`SpeedProbe` samples that speed while the benchmark
runs: every :data:`INTERVAL_S` a ``SIGALRM`` handler times a fixed
300-operation heap loop that touches no ``repro`` code.  The runner
multiplies host times by :data:`NOMINAL_PROBE_S` over the median probe
time of the same stretch of the run: the seconds they would have taken
with the probe at its nominal speed.  Because the probe runs none of the
program's code, a faster program shows in full in normalised time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

#: Seconds between probes; each probe costs about 1% of that.
INTERVAL_S = 0.02
#: The probe's duration that host times are scaled to: about its median
#: on the 2-CPU x86 VM the benchmark was tuned on (Python 3.11).
NOMINAL_PROBE_S = 140e-6


def _probe_loop() -> float:
    # Integers only, and a heap small enough to stay in L1: the probe
    # never triggers a garbage collection and barely depends on what the
    # program left in the caches, only on how fast the core runs.
    start = perf_counter()
    heap: list = []
    for i in range(300):
        heapq.heappush(heap, i * 7919 % 1000)
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - start


class SpeedProbe:
    """Context manager that samples machine speed while it is open."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_probe_loop())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A position in the sample stream, for :meth:`factor`."""
        return len(self.samples)

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Nominal over median probe time between two marks (all samples
        when that stretch holds none): multiply host seconds by it."""
        window = self.samples[since:until] or self.samples
        if not window:
            return 1.0
        return NOMINAL_PROBE_S / statistics.median(window)
