"""Tests of the benchmark itself: seeded inputs, failure counting and span accounting."""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from bench import harness, inputs, spans
from bench import reference as speed
from bench.workloads import WORKLOADS, Library

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def lib() -> Library:
    # Imported the ordinary way: the benchmark's own loader drops and
    # re-imports the package, which other test modules must not see.
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stanley
    import stanley.cli

    return Library(stanley, stanley.cli)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    selection = WORKLOADS[name].selection
    first = inputs.generate(selection, 7)
    assert inputs.generate(selection, 7) == first
    assert inputs.generate(selection, 8) != first
    assert len(set(first)) == len(selection.anchors) + sum(t.count for t in selection.tiers) >= harness.MIN_OPS
    features = inputs.Features()
    drawn = [w for w in first if w not in selection.anchors]
    assert all(any(t.accepts(w, features) for t in selection.tiers) for w in drawn)


def test_expand_keeps_permutations_with_thousands_of_reduced_words():
    perms = inputs.generate(WORKLOADS["expand"].selection, 3)
    memo: dict = {}
    assert sum(1 for w in perms if inputs.count_reduced_words(w, memo) >= 1000) >= 5


def test_selection_features_match_the_library(lib):
    features = inputs.Features()
    for w in [(2, 3, 1, 6, 5, 4), (3, 2, 1, 6, 5, 4), (1, 4, 7, 2, 5, 8, 3, 6, 9), (4, 1, 3, 6, 2, 7, 5)]:
        tree = lib.pkg.mls_tree(w)
        assert features.value("eg_pipedreams", w) == len(tree.leaves())
        assert features.value("tree_nodes", w) == len(tree.nodes)
        if len(w) <= 7:
            assert features.value("reduced_words", w) == len(lib.pkg.reduced_words(w))


def test_wrong_or_raising_ops_count_as_failed():
    def op(w):
        if len(w) == 2:
            raise ValueError("boom")
        return sum(w)

    perms = [(1,), (2, 1), (1, 2, 3), (3, 1, 2)]
    references = [1, 3, 7, 6]
    loop = harness.measure(perms, references, op, lambda w, ref, out: out == ref, 0.0, 10.0)
    passes = len(loop.passes)
    assert passes == harness.MIN_PASSES
    assert loop.attempted == len(loop.samples_ns) == 4 * passes
    assert loop.failed == 2 * passes
    assert loop.first_failure == "21: ValueError('boom')"


def test_nominal_times_cancel_a_slow_phase_of_the_host():
    fast, slow = speed.NOMINAL_NS, 2 * speed.NOMINAL_NS
    loop = harness.Loop(
        passes=[[10, 40, 20], [20, 80, 40], [10, 60, 20]],
        refs=[[fast] * 4, [slow] * 4, [fast, fast, slow, slow]],
    )
    assert harness.nominal_times(loop) == [10, 40, 20]
    assert harness.best_times(loop) == [10, 40, 20]
    assert speed.sample() > 0


def _traced_pass(lib: Library, name: str, perms: list) -> tuple[spans.Tracer, harness.Loop]:
    workload = WORKLOADS[name]
    references = [lib.pkg.eg_coeffs(w, "mls_leaves") for w in perms]
    tracer = spans.Tracer()
    loop = harness.Loop()
    restore = spans.install(tracer)
    try:
        harness.run_pass(perms, references, functools.partial(workload.op, lib), workload.check, loop, tracer)
    finally:
        restore()
    assert loop.failed == 0
    return tracer, loop


def test_self_times_add_up_to_the_op_wall_time(lib):
    original = lib.pkg.gamma
    tracer, loop = _traced_pass(lib, "bijection", [(3, 2, 1, 6, 5, 4), (2, 3, 1, 6, 5, 4)])
    assert lib.pkg.gamma is original
    own = tracer.self_times()
    assert min(own) >= 0
    for op_id, wall in enumerate(loop.samples_ns):
        total = sum(t for span, t in enumerate(own) if tracer.op[span] == op_id)
        assert abs(total - wall) <= 0.05 * wall
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["bijection.gamma.calls"][0] == 8 + 4
    assert metrics["trees.eg_tree.calls"][0] == 2 + 8 + 4
    assert metrics["pipedreams.droop.accept_ratio"][0] == 1.0


def test_rejected_droops_are_counted_and_reraised(lib):
    tracer, _ = _traced_pass(lib, "verify", [(1, 4, 3, 2)])
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["cli.main.calls"][0] == 1
    assert 0 < metrics["pipedreams.droop.accept_ratio"][0] < 1

    restore = spans.install(spans.Tracer())
    try:
        with pytest.raises(ValueError, match="no SE elbow"):
            lib.pkg.droop(lib.pkg.rothe((2, 1)), (2, 2), (2, 2))
    finally:
        restore()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_reports_exactly_the_declared_metrics(trace, kind, capsys):
    from bench import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    # The run re-imports stanley; the modules other tests hold are put back.
    saved = {name: m for name, m in sys.modules.items() if name == "stanley" or name.startswith("stanley.")}
    try:
        result = run.run_one("expand", 5, 0.0, bool(trace))
    finally:
        for name in [m for m in sys.modules if m == "stanley" or m.startswith("stanley.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= harness.MIN_OPS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
