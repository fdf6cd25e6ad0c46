"""
A fixed unit of pure-Python work, timed between ops to read the host's
speed at that moment.

On a shared host other tenants slow the same single-threaded Python code
by up to 1.9x in phases lasting from well under a second to minutes, with
no steal time: CPU time grows as much as wall time.  No statistic of one
run can undo a phase that covers the whole run.  The reference work slows
with the ops, so an op's time divided by the reference time measured next
to it stays put while both move; multiplied by the reference's nominal
time it reads as milliseconds at the host's nominal speed.

The work imitates the library's (small tuples and lists of ints, dict
look-ups, function calls) and never calls it, so a change to ``stanley``
leaves it alone.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

# The reference work's time at the nominal speed of the host the benchmark
# was built on (the fastest phase seen), in ns.  Only ratios between runs
# matter; the constant just keeps the figures in familiar units.
NOMINAL_NS = 1_000_000
# Reference samples on each side of an op that set its speed.
WINDOW = 2


def _descents(w: tuple[int, ...]) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def work() -> int:
    """Walk the weak order of S6 down from its longest element, memoising
    descent counts on tuples: a few thousand tuple, list and dict steps,
    about a millisecond."""
    memo: dict[tuple[int, ...], int] = {}
    frontier = [(6, 5, 4, 3, 2, 1)]
    total = 0
    while frontier:
        w = frontier.pop()
        if w in memo:
            continue
        ds = _descents(w)
        memo[w] = len(ds)
        total += len(ds)
        for d in ds:
            v = list(w)
            v[d - 1], v[d] = v[d], v[d - 1]
            frontier.append(tuple(v))
    return total


def sample() -> int:
    """One timed run of the reference work, in ns.  The cyclic collector is
    held off meanwhile: its cost grows with the library's heap, which the
    reference must not read."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        work()
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def scale(refs: Sequence[int]) -> float:
    """The factor that takes a time measured amid `refs` to the nominal speed."""
    return NOMINAL_NS / statistics.median(refs)


def scales(refs: Sequence[int]) -> list[float]:
    """
    For ops run between reference samples ``refs[i]`` and ``refs[i + 1]``:
    the factor that takes op i's time to the nominal speed, from the median
    of the samples within WINDOW on either side.
    """
    return [scale(refs[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]) for i in range(len(refs) - 1)]
