"""A fixed pure-Python loop, timed next to the work, that gauges host speed.

On a shared host the same pass can take 1.5x longer in one minute than in
the next, and a pure-Python loop of fixed work (``probe_loop``) slows down
with it. Every time the benchmark reports is scaled to a nominal host on
which that loop takes ``NOMINAL_PROBE_S``: ``nominal(seconds, probe_s)``
multiplies the seconds measured by ``NOMINAL_PROBE_S / probe_s``, where
``probe_s`` is the loop's time measured alongside them. The scaled time
moves when the program's speed changes, not when the host's does.

``HostProbe`` times the loop once as a pass starts, then from a
``SIGALRM`` handler every ``interval`` seconds while it runs, in the
caller's own thread, and once more after it ends; ``probe_s`` of the pass
is the median of those times.

The handler runs between Python bytecodes, so a long call into NumPy
delays a probe rather than splitting it. The time the handler takes is
recorded as ``spent`` and left out of ``elapsed``.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.05
# the loop's time on the 2-vCPU Xeon VM the benchmark was defined on, in a
# quiet phase; a fixed scale, so that reported times read close to seconds
NOMINAL_PROBE_S = 1.5e-3


def probe_loop(loops: int = PROBE_LOOPS) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


def probe_median() -> float:
    """Median seconds of three back-to-back probe loops."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def nominal(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe loop took ``probe_s``, scaled to the nominal host."""
    return seconds * NOMINAL_PROBE_S / probe_s


class HostProbe:
    """Samples ``probe_loop`` times around and during a ``with`` block.

    ``samples`` holds each loop's seconds, ``spent`` the seconds the
    handler took inside the block, and ``elapsed`` the block's seconds
    without them.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S, loops: int = PROBE_LOOPS):
        self.interval = interval
        self.loops = loops
        self.samples: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0
        self._start = 0.0
        self._saved = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        probe_loop(self.loops)
        self.samples.append(time.perf_counter() - t0)
        return t0

    def _on_alarm(self, *_) -> None:
        t0 = self._sample()
        self.spent += time.perf_counter() - t0

    def median(self) -> float:
        return statistics.median(self.samples)

    def __enter__(self) -> HostProbe:
        self.samples, self.spent = [], 0.0
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()
