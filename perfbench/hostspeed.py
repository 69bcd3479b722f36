"""Host-speed probe: how fast the host runs plain Python right now.

A host that shares its CPUs with other tenants' work drifts in speed by
up to a factor of two, from second to second and over minutes: the
same simulation, timed in ten runs a few minutes apart, spread 26-33%
(quartile distance over median).  Measuring longer does not remove a
drift that slow.  So while a simulation or build is timed, a fixed
kernel that uses no simulator code is sampled before, after and every
``SAMPLE_EVERY_S`` during it, and the work's host seconds are scaled to
a reference host speed:

    scaled = host seconds * PROBE_REF_S / median sample seconds

A change to the simulator moves the scaled time exactly as it moves the
host time; a slow phase of the host moves the samples as well and
cancels out.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import List

import numpy as np

#: median probe time on the reference host (2 vCPUs at 2.1 GHz, CPython
#: 3.11); it only sets the scale, not the spread
PROBE_REF_S = 0.003
#: kernel calls per probe before and after timed work
PROBE_CALLS = 5
#: host seconds between samples during timed work
SAMPLE_EVERY_S = 0.1

_SERIES = np.linspace(100.0, 400.0, 96)


def _kernel() -> float:
    """The simulator's mix of work in miniature: an event heap, a dict
    of accounts, float accrual, small objects created and dropped, and
    small-array numpy calls like an intensity integral's."""
    rng = random.Random(1)
    heap: List[tuple] = []
    accounts = {}
    total = 0.0
    for i in range(2000):
        key = i % 61
        accounts[key] = accounts.get(key, 0.0) + rng.random()
        heapq.heappush(heap, (accounts[key], i))
        if len(heap) > 50:
            total += heapq.heappop(heap)[0]
    for i in range(150):
        idx = np.arange(i % 50, i % 50 + 24)
        starts = idx * 3600.0
        overlaps = np.clip(np.minimum(starts + 3600.0, 1e5)
                           - np.maximum(starts, 1e3), 0.0, None)
        total += float(np.dot(_SERIES[idx], overlaps))
    return total


def _timed_kernel() -> float:
    """Host seconds of one kernel call, with the collector off so that
    objects a simulation left behind cannot slow the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe() -> List[float]:
    """Host seconds of ``PROBE_CALLS`` kernel calls."""
    return [_timed_kernel() for _ in range(PROBE_CALLS)]


def scale(*probes: List[float]) -> float:
    """Factor from host seconds to reference seconds, from the probes
    taken around a timed piece of work."""
    return PROBE_REF_S / statistics.median(t for p in probes for t in p)


class Meter:
    """Samples the kernel around and during the work timed inside it.

    During the work a SIGALRM timer takes one sample every
    ``SAMPLE_EVERY_S``, so a simulation of several seconds is scaled by
    the host's speed through it, not only at its ends.  ``clock()`` is
    ``perf_counter`` less the time samples took: time work with it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _sample(self, signum, frame) -> None:
        t = _timed_kernel()
        self.samples.append(t)
        self._spent += t

    def __enter__(self) -> "Meter":
        self.samples += probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += probe()

    def scale(self) -> float:
        return scale(self.samples)
