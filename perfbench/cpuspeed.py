"""How fast a CPU of a shared host runs right now.

On a shared host each virtual CPU runs at one of a few speeds, down to a
quarter of its best, set by work outside this machine; the speed switches
every few seconds and can stay low for many minutes, on each CPU
independently. The runner starts each child on the CPU that
``fastest_cpu`` picks, and times ``reference_kernel`` on that CPU just before
the child starts and just after it ends. The command's mean time over a
run divided by the kernel's is the benchmark's ``wall_per_ref``: a slow
spell stretches both and cancels, while a change to the package moves only
the command's time, because the kernel reads nothing of the package.

The kernel runs in the runner, not in the child, so it adds nothing to the
child's peak RSS.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

#: Timed repetitions of the reference kernel on each side of a child.
REFERENCE_REPS = 4


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


_POINTS = [_Point(i * 0.5, i * 0.25) for i in range(1_500)]
_VECTOR = np.linspace(0.5, 1.5, 15_000)


def reference_kernel() -> float:
    """A fixed mix of the work the package spends most of its time on (about 10 ms).

    Mostly pure Python: a dict keyed by frozen dataclass points and an
    ``fsum`` over it with ``math.log``, as in the package's measures, which
    are dicts of frozen dataclass atoms; then numpy exp/log over a vector the
    size of a measure. Everything fits in a core's cache.
    """
    total = 0.0
    for _ in range(4):
        weights = {p: (i + 1) * 1e-3 for i, p in enumerate(_POINTS)}
        total += math.fsum(weights[p] * math.log(weights[p]) for p in _POINTS)
        total += float(np.exp(-_VECTOR / 0.3).sum() + (_VECTOR * np.log(_VECTOR)).sum())
    return total


def fastest_cpu() -> int:
    """The CPU that runs a fixed pure-Python probe (about 2 ms) fastest now."""
    cpus = sorted(os.sched_getaffinity(0))
    times = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            table = {(i * 0.5, i * 0.25): i for i in range(4_000)}
            math.fsum(table.values())
            times[cpu] = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
    return min(times, key=times.get)


def time_reference(cpu: int, reps: int = REFERENCE_REPS) -> list[float]:
    """Seconds each of ``reps`` runs of the kernel takes on ``cpu``, after one untimed run."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        os.sched_setaffinity(0, {cpu})
        reference_kernel()
        for _ in range(reps):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return times
