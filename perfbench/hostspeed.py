"""Host-speed correction of the end-to-end times.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
drifts by a quarter or more over tens of seconds as neighbouring load comes
and goes: one iteration of the crofton workload takes anywhere from 10 to
16 seconds, and its CPU time drifts with its wall time, so repeating the work
within a run does not remove the drift.

A :class:`HostSpeed` sampler measures the drift where it happens.  A
SIGALRM timer interrupts the main thread every ``period`` seconds and runs
a fixed probe: numpy expressions on an 8-row array, whose time is that of
the interpreter and of numpy's per-call dispatch, as in girthlab's scalar
solves and in its many calls on mid-size batches.  :meth:`HostSpeed.timed`
runs a function, takes the probe time out of its wall time, and divides
the rest by the host's slowdown while it ran, the mean probe time over
``NOMINAL_PROBE_S``.  The result is the time the call would have taken at
the host speed of the machine in ``BASELINE.json``.  The probe touches
nothing of girthlab's, so a change to girthlab moves the corrected time as
it moves the raw one.

Probes on a pure-Python loop and on 32768-row and 200000-row arrays were
tried too.  The tiny-array probe alone tracked all three workloads best:
corrected medians of two sets of runs, taken while the probe ran 60 %
slower in one set than in the other, agreed within 2 % on every workload,
where mixes with the other probes left geodesics 7-11 % apart.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median probe time on the 2-vCPU machine described in BASELINE.json.
NOMINAL_PROBE_S = 3.4e-3
MIN_PROBES = 8  # a call shorter than this many periods is probed afterwards too

_S = np.random.default_rng(2).standard_normal((8, 3))


def probe() -> float:
    """Run the fixed probe once; returns its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    with np.errstate(all="ignore"):
        for _ in range(300):
            a = np.abs(_S)
            s += float((_S / (((a**4).sum(1)) ** 0.25)[:, None]).sum())
    return time.perf_counter() - t0


def slowdown(probes) -> float:
    """Host slowdown over a list of probe times, 1 at nominal speed."""
    return statistics.fmean(probes) / NOMINAL_PROBE_S


class HostSpeed:
    """Probe the host every ``period`` seconds while active (main thread
    only); use as a context manager."""

    def __init__(self, period: float = 0.5):
        self.period = period
        self.probes: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.probes.append(probe())
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(3):  # warm the probe's code and arrays
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Call ``fn(*args)``; returns (its result, its wall time without
        the probes, that time corrected to the nominal host speed)."""
        n0, spent0 = len(self.probes), self.spent
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        seen = self.probes[n0:]
        while len(seen) < MIN_PROBES:
            seen.append(probe())
        return out, wall, wall / slowdown(seen)
