"""Host-speed reference for ``wall_s``.

The same pure-Python code runs up to about twice as fast or slow on a
shared host, in spells that last from under a second to minutes, so raw
wall times of whole runs spread more than any useful regression bound.
While the cases run, a timer signal interrupts the worker every
``INTERVAL_S`` seconds of wall time and times a fixed kernel that does
not touch the library (recursive search over a small graph, colour
refinement with dicts, tuples and sorting: the same kind of interpreter
work as the library).  The kernel's time is left out of the case times
(see ``clock``), and each case time is multiplied by the host speed
measured while it ran, relative to the kernel's nominal time
``REFERENCE_S``.  A scaled time reads as the time the work takes on a
host where the kernel takes ``REFERENCE_S``; it moves when the library's
work changes, not when the host's speed does.

The kernel's working set is a few kilobytes, so it does not raise the
peak resident memory, and the cyclic garbage collector is off while it
runs, so a large live heap left by the library does not slow it.
"""

from __future__ import annotations

import gc
import signal
from statistics import fmean
from time import perf_counter

# Nominal kernel time, between its times in the fast (about 4.5 ms) and
# the slow (about 8 ms) spells of the host the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11.7).  Only a unit: scaled times read
# as seconds on a host where the kernel takes this long.
REFERENCE_S = 0.006
# The kernel runs every INTERVAL_S of wall time and costs about 3% of it.
INTERVAL_S = 0.25
# Cases shorter than this are scaled together, by the samples taken
# while any of them ran.
SEGMENT_S = 1.0

_EDGES = ((0, 1), (0, 2), (0, 5), (1, 3), (1, 6), (2, 4), (2, 7), (3, 4), (3, 8),
          (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9))
_N = 10

# Kernel times taken so far, and their total including the handler.
samples: list[float] = []
_busy = 0.0


def _kernel() -> int:
    adj = [set() for _ in range(_N)]
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    paths = 0
    visited = set()

    def extend(v: int) -> None:
        nonlocal paths
        paths += 1
        visited.add(v)
        for w in sorted(adj[v]):
            if w not in visited:
                extend(w)
        visited.discard(v)

    for s in range(_N):
        extend(s)
    colors = {v: len(adj[v]) for v in range(_N)}
    for _ in range(200):
        sig = {v: (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(_N)}
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colors = {v: (ranks[sig[v]] + v) % 7 for v in range(_N)}
    return paths + sum(colors.values())


def sample(*_signal_args) -> None:
    """Time the kernel once; also the timer signal's handler."""
    global _busy
    t0 = perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        k0 = perf_counter()
        _kernel()
        samples.append(perf_counter() - k0)
    finally:
        if enabled:
            gc.enable()
        _busy += perf_counter() - t0


def clock() -> float:
    """``perf_counter`` without the time spent sampling."""
    return perf_counter() - _busy


def start() -> None:
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Pacer:
    """Scales case times by the host speed measured while they ran.

    Consecutive cases form a segment until their times add up to
    ``SEGMENT_S``.  Each case time in a segment is multiplied by
    ``REFERENCE_S`` times the mean of 1 / kernel time over the samples
    taken during the segment: the samples come at even intervals of wall
    time, so that mean is the host's average speed over the segment.
    """

    def __init__(self):
        self.scaled: dict[str, list[float]] = {}
        self._first = len(samples)
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0

    def add(self, key: str, seconds: float) -> None:
        self._pending.append((key, seconds))
        self._pending_s += seconds
        if self._pending_s >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        """Close the open segment, if any."""
        if not self._pending:
            return
        if len(samples) == self._first:
            sample()  # a segment too short for the timer to fire
        factor = REFERENCE_S * fmean(1 / k for k in samples[self._first:])
        for key, seconds in self._pending:
            self.scaled.setdefault(key, []).append(seconds * factor)
        self._first = len(samples)
        self._pending = []
        self._pending_s = 0.0
