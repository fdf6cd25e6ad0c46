"""
Closed-loop measurement over a fixed op list.

One client runs whole passes over the op list, one op at a time, until the
run's time is up.  Each op is timed alone; its output is checked after the
clock stops, and an op that raises or returns a wrong answer is counted as
failed without ending the run.

A fixed unit of reference work (``bench/reference.py``) is timed before
each op and after the last.  The end-to-end figures use each op's median
over the run's passes of its time at the host's nominal speed: the op's
time scaled by the reference samples around it.  On a shared host other
tenants slow the same pass by up to 1.9x in phases lasting up to minutes,
longer than a run; the reference slows with the ops and cancels them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import reference as speed
from .inputs import Perm, format_perm
from .spans import Tracer

# The tail percentile, and the op-list length that leaves ten ops beyond it.
TAIL = 0.9
MIN_OPS = 100
# Passes a run makes at least, so that each op's median pass is a true median.
MIN_PASSES = 3


@dataclass
class Loop:
    passes: list[list[int]] = field(default_factory=list)
    # Per pass, the reference samples taken before each op and after the last.
    refs: list[list[int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    @property
    def samples_ns(self) -> list[int]:
        return [t for times in self.passes for t in times]


def run_pass(
    perms: Sequence[Perm],
    references: Sequence[Any],
    op: Callable[[Perm], Any],
    check: Callable[[Perm, Any, Any], bool],
    loop: Loop,
    tracer: Tracer | None = None,
) -> int:
    """One pass over the op list; returns the sum of its op times in ns."""
    times, refs = [], []
    for w, reference in zip(perms, references):
        refs.append(speed.sample())
        op_id = loop.attempted
        loop.attempted += 1
        error: BaseException | None = None
        out = None
        start = time.perf_counter_ns()
        try:
            out = op(w) if tracer is None else tracer.run_op(op_id, op, w)
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        times.append(time.perf_counter_ns() - start)
        if error is None:
            try:
                ok = bool(check(w, reference, out))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            loop.failed += 1
            if loop.first_failure is None:
                loop.first_failure = f"{format_perm(w)}: " + (repr(error) if error else "wrong output")
    refs.append(speed.sample())
    loop.passes.append(times)
    loop.refs.append(refs)
    return sum(times)


def measure(
    perms: Sequence[Perm],
    references: Sequence[Any],
    op: Callable[[Perm], Any],
    check: Callable[[Perm, Any, Any], bool],
    seconds: float,
    cap_seconds: float,
) -> Loop:
    """Whole passes until `seconds` and MIN_PASSES are reached, or `cap_seconds`."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        run_pass(perms, references, op, check, loop)
        elapsed = time.perf_counter() - start
        if elapsed >= cap_seconds or (elapsed >= seconds and len(loop.passes) >= MIN_PASSES):
            return loop


def best_times(loop: Loop) -> list[int]:
    """Each op's fastest time over the run's passes, in ns."""
    return [min(times) for times in zip(*loop.passes)]


def nominal_times(loop: Loop) -> list[float]:
    """Each op's median over the run's passes of its time at the host's
    nominal speed, in ns."""
    scaled = [
        [t * k for t, k in zip(times, speed.scales(refs))] for times, refs in zip(loop.passes, loop.refs)
    ]
    return [statistics.median(times) for times in zip(*scaled)]


def latency_metrics(times_ns: Sequence[int]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(times_ns) / (sum(times_ns) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(times_ns) / 1e6, "ms"),
        "op_p90_ms": (tail(times_ns) / 1e6, "ms"),
    }


def tail(times_ns: Sequence[int]) -> float:
    return statistics.quantiles(times_ns, n=100)[round(TAIL * 100) - 1]
