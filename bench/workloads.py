"""
The three benchmark workloads and the set-up they share.

Each workload is a closed loop with one client in one thread: the next op
starts only when the previous one has returned.  An op is one call into the
public API of ``stanley`` for one generated permutation.  Outputs are
checked after the op's clock has stopped, against references computed in
set-up by an independent route.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

from . import inputs
from .inputs import Perm, Selection, Tier

S5_W0 = (5, 4, 3, 2, 1)
# w0 of S5 times s_6 in S7: 8448 reduced words, the top of the expand range.
W5432176 = (5, 4, 3, 2, 1, 7, 6)
W231654 = (2, 3, 1, 6, 5, 4)
# 321654 is checked here only by route agreement: the benchmark neither
# adopts nor contests the expansion that acceptance criterion 3 pins.
W321654 = (3, 2, 1, 6, 5, 4)
W1357246 = (1, 3, 5, 7, 2, 4, 6)
W147258369 = (1, 4, 7, 2, 5, 8, 3, 6, 9)


@dataclass(frozen=True)
class Library:
    """The ``stanley`` package and its command line module, freshly imported."""

    pkg: ModuleType
    cli: ModuleType


def load_library(src: Path) -> Library:
    """
    Import ``stanley`` from `src`, dropping any copy imported before so that
    every set-up pays for the import and starts with empty caches.
    """
    for name in [m for m in sys.modules if m == "stanley" or m.startswith("stanley.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("stanley")
    if Path(pkg.__file__).resolve().parent != (src / "stanley").resolve():
        raise ImportError(f"stanley was imported from {pkg.__file__}, not from {src}")
    return Library(pkg, importlib.import_module("stanley.cli"))


def expand_op(lib: Library, w: Perm) -> Any:
    return lib.pkg.eg_coeffs(w)


def expand_check(w: Perm, reference: dict, out: Any) -> bool:
    return out == reference


def bijection_op(lib: Library, w: Perm) -> Any:
    pkg = lib.pkg
    tree = pkg.eg_tree(w)
    return [(leaf.pipedream, pkg.gamma(pkg.gamma_inverse(leaf.pipedream), w)) for leaf in tree.leaves()]


def bijection_check(w: Perm, reference: dict, out: Any) -> bool:
    return len(out) == sum(reference.values()) and all(p == back for p, back in out)


def verify_op(lib: Library, w: Perm) -> Any:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = lib.cli.main(["verify", inputs.format_perm(w)])
    return status, buf.getvalue()


def verify_check(w: Perm, reference: dict, out: Any) -> bool:
    status, text = out
    return status == 0 and text.splitlines()[-1:] == ["status: OK"]


def verify_warm_up(lib: Library, w: Perm, reference: dict) -> None:
    """Fill the ``schur_poly`` cache for every shape the ``monomial`` route
    peels: the shapes of the expansion, in l(w) variables."""
    for lam in reference:
        lib.pkg.schur_poly(lam, max(inputs.length(w), 1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    selection: Selection
    op: Callable[[Library, Perm], Any]
    check: Callable[[Perm, dict, Any], bool]
    warm_up: Callable[[Library, Perm, dict], None] | None = None


# 100 ops each, so that ten ops lie beyond the 90th percentile.  The tiers
# place the median op inside the middle band and the 90th-percentile op
# inside the top band; bench/DESIGN.md gives the costs behind each band.
WORKLOADS = {
    "expand": Workload(
        "expand",
        "Default eg_coeffs route: list and EG-insert every reduced word (1 to "
        "8448 per input); no pipedreams, trees or polynomials. 321654: route "
        "agreement only, criterion 3 neither adopted nor contested.",
        Selection(
            (W231654, W321654, S5_W0, W1357246, W5432176),
            (
                Tier(20, (6, 7), (("letters", 1, 12),)),
                Tier(55, (6, 7), (("letters", 1433, 1648),)),
                Tier(20, (7,), (("letters", 23455, 26973),)),
            ),
        ),
        expand_op,
        expand_check,
    ),
    "bijection": Workload(
        "bijection",
        "The paper's bijection: eg_tree, then gamma_inverse and gamma on every "
        "leaf (Little bumps, accepted droops); no polynomials. 321654: route "
        "agreement only, criterion 3 neither adopted nor contested.",
        Selection(
            (W321654, W147258369),
            (
                Tier(30, (7,), (("eg_pipedreams", 2, 2), ("tree_nodes", 4, 4), ("length", 12, 14))),
                Tier(50, (8,), (("eg_pipedreams", 3, 3), ("tree_nodes", 9, 10), ("length", 13, 16))),
                Tier(18, (8,), (("eg_pipedreams", 5, 5), ("tree_nodes", 13, 15), ("length", 10, 13))),
            ),
        ),
        bijection_op,
        bijection_check,
    ),
    "verify": Workload(
        "verify",
        "User-facing cross-check: the verify command in-process, four expansion"
        " routes, the double Schubert staircase with divided differences, and "
        "trial droops, many rejected.",
        Selection(
            (),
            (
                Tier(98, (5,), (("length", 1, 7),)),
                Tier(2, (6,), (("fixes_n", 1, 1), ("length", 3, 5))),
            ),
        ),
        verify_op,
        verify_check,
        verify_warm_up,
    ),
}


@dataclass
class Setup:
    lib: Library
    perms: list[Perm]
    references: list[dict]
    seconds: float


def set_up(workload: Workload, src: Path, seed: int) -> Setup:
    """
    Import, generate the inputs, compute the references by the
    ``mls_leaves`` route and warm the caches the ops will use.
    """
    start = time.perf_counter()
    lib = load_library(src)
    perms = inputs.generate(workload.selection, seed)
    references = [lib.pkg.eg_coeffs(w, "mls_leaves") for w in perms]
    if workload.warm_up is not None:
        for w, reference in zip(perms, references):
            workload.warm_up(lib, w, reference)
    return Setup(lib, perms, references, time.perf_counter() - start)
