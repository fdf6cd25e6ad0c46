"""
Traced runs: spans recorded around the calls into each layer of
``stanley``, from the benchmark's own files.

The tracer replaces each listed public function by a wrapper at every
``stanley`` module attribute bound to it, and wraps ``SparsePoly.__mul__``
(bound as ``__rmul__`` too).  A span records its name, start, end, parent
span and op id.  Spans stay in compact arrays in memory and are written out
once, at the end.  A span's self time is its duration minus the durations
of its child spans; calls in one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

# (module, attribute) of every traced layer function.  The span name is
# "<module>.<attribute>", with SparsePoly.__mul__ shortened to SparsePoly.mul.
TARGETS = (
    ("permutations", "reduced_words"),
    ("permutations", "is_dominant"),
    ("words", "little_map"),
    ("words", "little_map_inverse"),
    ("words", "is_reduced"),
    ("tableaux", "eg_insert"),
    ("tableaux", "enumerate_reduced_word_tableaux"),
    ("pipedreams", "droop"),
    ("pipedreams", "validate"),
    ("pipedreams", "enumerate_all"),
    ("pipedreams", "reverse_droop"),
    ("pipedreams", "max_pivot_box"),
    ("trees", "eg_tree"),
    ("trees", "mls_tree"),
    ("bijection", "gamma"),
    ("bijection", "gamma_inverse"),
    ("bijection", "word_of_pipedream"),
    ("polynomials", "SparsePoly.__mul__"),
    ("polynomials", "divided_difference"),
    ("polynomials", "double_schubert"),
    ("polynomials", "schubert_bjs"),
    ("polynomials", "stanley_truncated"),
    ("polynomials", "schur_expand"),
    ("polynomials", "schur_poly"),
    ("cli", "main"),
)
OP = "op"
OK, REJECTED, RAISED = 0, 1, 2

# Result sizes kept per span, for the ratios below.
SIZES: dict[str, Callable[[Any], int]] = {
    "trees.eg_tree": lambda tree: len(tree.nodes),
    "tableaux.enumerate_reduced_word_tableaux": len,
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__mul__', '.mul')}"


class Tracer:
    """Spans of one traced run, as parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names = [OP] + [span_name(m, a) for m, a in TARGETS]
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.status = array("b")
        self.size: dict[int, int] = {}
        self.op_id = -1
        self._open: list[int] = []

    def begin(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.status.append(OK)
        self._open.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def finish(self, span: int, status: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self.status[span] = status
        self._open.pop()

    def run_op(self, op_id: int, op: Callable[[Any], Any], arg: Any) -> Any:
        """Call op(arg) under a root span carrying op_id."""
        self.op_id = op_id
        span = self.begin(0)
        status = RAISED
        try:
            out = op(arg)
            status = OK
            return out
        finally:
            self.finish(span, status)

    def self_times(self) -> list[int]:
        """Nanoseconds of each span not covered by its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def write(self, path: Path) -> None:
        """
        All spans, gzipped: one JSON header line naming the columns and
        their array type codes, then each column's native-order bytes.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "op", "start", "end", "status")
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                out.write(getattr(self, column).tobytes())


def _wrap(tracer: Tracer, name_id: int, fn: Callable, size: Callable[[Any], int] | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name_id)
        status = RAISED
        try:
            out = fn(*args, **kwargs)
            if size is not None:
                tracer.size[span] = size(out)
            status = OK
            return out
        except ValueError:
            # For droop a ValueError is a rejected trial; it propagates as is.
            status = REJECTED
            raise
        finally:
            tracer.finish(span, status)

    return traced


def install(tracer: Tracer, package: str = "stanley") -> Callable[[], None]:
    """
    Wrap every target at each module attribute bound to it and return a
    function that puts the originals back.
    """
    homes = [importlib.import_module(f"{package}.{module}") for module, _ in TARGETS]
    modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
    undo: list[tuple[Any, str, Any]] = []
    for name_id, ((_, attr), home) in enumerate(zip(TARGETS, homes), start=1):
        if "." in attr:
            cls_name, method = attr.split(".")
            owners = [getattr(home, cls_name)]
            original = vars(owners[0])[method]
        else:
            owners = modules
            original = getattr(home, attr)
        wrapper = _wrap(tracer, name_id, original, SIZES.get(tracer.names[name_id]))
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    undo.append((owner, key, original))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """
    Per-layer figures per pass over the op list: calls and self seconds of
    every target, plus the ratios and sizes the layers expose.
    """
    own = tracer.self_times()
    names = tracer.names
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for span, name_id in enumerate(tracer.name):
        calls[name_id] += 1
        self_ns[name_id] += own[span]
    metrics: dict[str, tuple[float, str]] = {}
    for name_id in range(1, len(names)):
        metrics[f"{names[name_id]}.calls"] = (calls[name_id] / passes, "count")
        metrics[f"{names[name_id]}.self_s"] = (self_ns[name_id] / 1e9 / passes, "s")

    droop = names.index("pipedreams.droop")
    tried = calls[droop]
    accepted = sum(1 for n, s in zip(tracer.name, tracer.status) if n == droop and s == OK)
    metrics["pipedreams.droop.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")

    eg_tree = names.index("trees.eg_tree")
    nodes = sum(size for span, size in tracer.size.items() if tracer.name[span] == eg_tree)
    metrics["trees.eg_tree.nodes"] = (nodes / passes, "count")

    enumerate_id = names.index("tableaux.enumerate_reduced_word_tableaux")
    insert_id = names.index("tableaux.eg_insert")
    tableaux = sum(size for span, size in tracer.size.items() if tracer.name[span] == enumerate_id)
    inserted = sum(
        1
        for span, name_id in enumerate(tracer.name)
        if name_id == insert_id and _has_ancestor(tracer, span, enumerate_id)
    )
    metrics["tableaux.enumerate_reduced_word_tableaux.words_per_tableau"] = (
        inserted / tableaux if tableaux else 0.0,
        "ratio",
    )
    return metrics


def _has_ancestor(tracer: Tracer, span: int, name_id: int) -> bool:
    span = tracer.parent[span]
    while span >= 0:
        if tracer.name[span] == name_id:
            return True
        span = tracer.parent[span]
    return False
