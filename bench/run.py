"""
Benchmark of the ``stanley`` library: closed-loop workloads over its public
API, with every output checked.

    python3 bench/run.py --workload expand --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are at the host's nominal speed, read from reference work timed
between ops (``bench/reference.py``); the wall-clock figures are printed
beside them.  ``--trace 1`` is the separate traced run: it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  Every metric is printed by name with its unit, and the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` (the default) runs every workload, each in
its own process, and prefixes each metric with the workload's name.

The library is imported from ``src/`` of the checkout this file sits in;
the run fails, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import harness, inputs, spans  # noqa: E402
from bench import reference as speed  # noqa: E402
from bench.workloads import WORKLOADS, Workload, set_up  # noqa: E402

SRC = ROOT / "src"
SPANS_DIR = ROOT / "bench" / "out"
# Set-up is repeated and its median reported, so that one slow import or
# cold disk does not decide setup_s.
SETUP_REPEATS = 5
# Reference samples taken on each side of a set-up to read the host's speed.
SETUP_REFS = 5
# A run stops here whatever it has measured, to end well within 180 s.
CAP_SECONDS = 100.0
# Traced passes stop adding spans past this many, to bound memory.
MAX_SPANS = 1_000_000


Metrics = dict[str, tuple[float, str]]


def untraced_run(workload: Workload, seed: int, seconds: float) -> tuple[harness.Loop, Metrics]:
    setups, nominal_setups = [], []
    for _ in range(SETUP_REPEATS):
        setup = None  # drop the previous library before importing it again
        refs = [speed.sample() for _ in range(SETUP_REFS)]
        setup = set_up(workload, SRC, seed)
        refs += [speed.sample() for _ in range(SETUP_REFS)]
        setups.append(setup.seconds)
        nominal_setups.append(setup.seconds * speed.scale(refs))
    describe_inputs(workload, seed, setup.perms)
    gc.collect()
    op = functools.partial(workload.op, setup.lib)
    loop = harness.measure(setup.perms, setup.references, op, workload.check, seconds, CAP_SECONDS)
    metrics = harness.latency_metrics(harness.nominal_times(loop))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (statistics.median(nominal_setups), "s")
    print(f"samples: {len(setup.perms)} ops x {len(loop.passes)} passes; each op reports its median pass")
    print("wall clock, as measured (the metrics below are at the host's nominal speed):")
    for label, times in (("  fastest pass", harness.best_times(loop)), ("  every pass", loop.samples_ns)):
        raw = harness.latency_metrics(times)
        print(f"{label}: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    print(f"  set-up: {', '.join(f'{s:.4f}' for s in setups)} s")
    refs = [r for pass_refs in loop.refs for r in pass_refs]
    print(f"  reference work: median {statistics.median(refs) / 1e6:.4f} ms, nominal {speed.NOMINAL_NS / 1e6:g} ms")
    return loop, metrics


def traced_run(workload: Workload, seed: int, seconds: float) -> tuple[harness.Loop, Metrics]:
    setup = set_up(workload, SRC, seed)
    describe_inputs(workload, seed, setup.perms)
    gc.collect()
    op = functools.partial(workload.op, setup.lib)
    tracer = spans.Tracer()
    untraced, traced = harness.Loop(), harness.Loop()
    start = time.perf_counter()
    while True:
        harness.run_pass(setup.perms, setup.references, op, workload.check, untraced)
        restore = spans.install(tracer)
        try:
            harness.run_pass(setup.perms, setup.references, op, workload.check, traced, tracer)
        finally:
            restore()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= CAP_SECONDS or len(tracer.start) >= MAX_SPANS:
            break
    metrics = spans.layer_metrics(tracer, len(traced.passes))
    overhead = sum(harness.nominal_times(traced)) / sum(harness.nominal_times(untraced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.bin.gz"
    tracer.write(path)
    print(f"spans: {len(tracer.start)} over {len(traced.passes)} traced passes, written to {path.relative_to(ROOT)}")
    both = harness.Loop(
        passes=untraced.passes + traced.passes,
        refs=untraced.refs + traced.refs,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        first_failure=untraced.first_failure or traced.first_failure,
    )
    return both, metrics


def describe_inputs(workload: Workload, seed: int, perms: list[inputs.Perm]) -> None:
    print(f"workload: {workload.name}, seed {seed}, one client, closed loop")
    print(f"why: {workload.why}")
    print(f"rule: {workload.selection.rule()}")
    print(f"inputs: {len(perms)} permutations, sha256 {inputs.digest(perms)}")
    print(f"perms: {' '.join(inputs.format_perm(w) for w in perms)}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    loop, metrics = (traced_run if trace else untraced_run)(workload, seed, seconds)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<64} {value:.6g} {unit}")
    fail_ratio = loop.failed / loop.attempted
    print(f"fail_ratio: {fail_ratio:.6g} ({loop.failed} of {loop.attempted} ops wrong or raised)")
    if loop.first_failure:
        print(f"first failure: {loop.first_failure}", file=sys.stderr)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict | None:
    """Every workload in a fresh process of its own, so that none inherits
    another's heap, caches or peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return None
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
