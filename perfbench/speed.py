"""Speed probes: fixed pieces of work that measure how fast the machine
runs right now, so that times can be scaled to one reference speed.

The benchmark runs on a shared host whose speed changes by up to 1.7x
over tens of seconds, as neighbours come and go, and the change is larger
for interpreter-bound code than for big-integer arithmetic.  Each workload
therefore has a probe shaped like its own hot path, written here and never
changed with pilerace, that the worker times between queries.  A pass's
times are multiplied by ``REFERENCE_S[probe] / median(probe samples of the
pass)``: a slow moment of the machine slows the probe and the queries
alike and cancels, while a change to pilerace moves only the queries.

``REFERENCE_S`` is roughly each probe's median between queries on the
machine where the benchmark was defined (a two-vCPU Intel Xeon virtual
machine, Python 3.11.7, numpy 2.4.6, mpmath 1.3.0 with its pure Python
backend).  It only sets the scale: scaled times read as seconds at that
machine's usual speed.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from itertools import count
from time import perf_counter

import numpy as np
from mpmath import mp, mpf


def exact_probe() -> Fraction:
    """A window DP over big integer counts of a {-2,3} walk, with a
    Fraction per step: the shape of the exact passage engine."""
    counts, lo, n, pow2, total = [1], 0, 60, 1, Fraction(0)
    for _ in range(320):
        pow2 <<= 1
        new = [0] * (len(counts) + 5)
        win = 0
        for i, c in enumerate(counts):
            if lo - 2 + i >= n:
                win += c
            else:
                new[i] += c
            if lo + 3 + i >= n:
                win += c
            else:
                new[i + 5] += c
        counts, lo = new[: n - lo + 2], lo - 2
        total += Fraction(win, pow2)
    return total


def _ratio_stream(s: int):
    """(k, term) of a central-binomial ratio recurrence in mpf."""
    u, m = mpf(4) ** (-s), s
    for k in count(1):
        term = mpf(0)
        if k % 2 == 0:
            while m < k // 2:
                u *= mpf((2 * m + 1) * (m + 1)) / (2 * (m + 1 - s) * (m + 1 + s))
                m += 1
            term = mpf(s) / m * u
        yield k, term


class _Sum:
    """An mpf running sum that keeps the last few magnitudes as floats."""

    def __init__(self):
        self.total = mpf(0)
        self.ring: list[tuple[int, float]] = []

    def add(self, k: int, term) -> None:
        if term:
            self.total += term
            self.ring.append((k, abs(float(term))))
            if len(self.ring) > 8:
                self.ring.pop(0)


def mpf_probe():
    """A generator of mpf terms squared and summed at 40 digits through a
    small accumulator object: the shape of the zero-drift closed-form
    stream and the summation core."""
    with mp.workdps(40):
        acc = _Sum()
        for k, term in ((k, t * t) for k, t in _ratio_stream(3)):
            acc.add(k, term)
            if k >= 2000:
                return acc.total


_KEYS = np.arange(600_000, dtype=np.uint64)


def numpy_probe() -> int:
    """SplitMix-style key mixing, ±1 steps and a cumulative sum over
    arrays: the shape of the simulator."""
    with np.errstate(over="ignore"):
        x = _KEYS * np.uint64(0x9E3779B97F4A7C15)
        for _ in range(3):
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            steps = (x >> np.uint64(63)).astype(np.int64) * 2 - 1
            walk = np.cumsum(steps)
    return int((walk > 30).argmax())


SPAWN_COMMAND = [sys.executable, "-c", "import numpy, mpmath"]


def spawn_probe() -> None:
    """A fresh interpreter importing numpy and mpmath, the bulk of
    ``import pilerace.cli``: the shape of set-up and of CLI children."""
    subprocess.run(SPAWN_COMMAND, check=True)


PROBES = {
    "exact": exact_probe,
    "mpf": mpf_probe,
    "numpy": numpy_probe,
    "spawn": spawn_probe,
}

# The probe of each workload, and of set-up (timed next to each set-up sample).
PROBE_OF = {
    "unit_step_series": "mpf",
    "exact_walks": "exact",
    "monte_carlo": "numpy",
    "cli_short": "spawn",
    "setup": "spawn",
}
# Share of a pass's query time that its probes may take.
PROBE_SHARE = 0.15

REFERENCE_S = {
    "exact": 0.034,
    "mpf": 0.030,
    "numpy": 0.026,
    "spawn": 0.21,
}


def time_probe(name: str) -> float:
    t0 = perf_counter()
    PROBES[name]()
    return perf_counter() - t0
