"""
Seeded inputs for the benchmark workloads.

The generator alone decides which permutations a run uses; the library
under test only ever receives the finished list.  The features that steer
the selection (reduced-word counts, transition-tree sizes) are computed
here from their definitions and never by calling ``stanley``, so a seed
names the same inputs on every commit.

Each workload draws its permutations in tiers.  A tier is a narrow band of
cost features, so the sorted per-op costs, and with them the median and
the tail percentile, land in the same place whatever the seed.  The bands
keep run time in check; they do not hide cost: ``expand`` keeps
permutations with several thousand reduced words.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
Perm = tuple[int, ...]

# A narrow band holds a few per cent of S_n, so a few thousand draws fill
# any tier; running out means the tier definitions are wrong.
MAX_DRAWS_PER_TIER = 200_000


def length(w: Perm) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def count_reduced_words(w: Perm, memo: dict[Perm, int]) -> int:
    """
    #R(w) by the descent recursion: a reduced word of w ends in d exactly
    when d is a descent, and what precedes it is a reduced word of w s_d.
    Memoised on w; the words themselves are never listed.
    """
    if w in memo:
        return memo[w]
    total = 0
    for d in range(1, len(w)):
        if w[d - 1] > w[d]:
            v = list(w)
            v[d - 1], v[d] = v[d], v[d - 1]
            total += count_reduced_words(tuple(v), memo)
    memo[w] = total or 1
    return memo[w]


def _is_dominant(w: Perm) -> bool:
    """132-avoiding, tested as a weakly decreasing Lehmer code."""
    code = [sum(1 for v in w[i + 1 :] if v < w[i]) for i in range(len(w))]
    return all(a >= b for a, b in zip(code, code[1:]))


def _swap(w: Perm, i: int, j: int) -> Perm:
    v = list(w)
    v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
    return tuple(v)


def _covers(v: Perm, i: int, k: int) -> bool:
    """Does v t_{i,k} (i < k) have length l(v) + 1?"""
    lo, hi = v[i - 1], v[k - 1]
    return lo < hi and not any(lo < v[j - 1] < hi for j in range(i + 1, k))


def transition_tree_size(w: Perm, memo: dict[Perm, tuple[int, int]]) -> tuple[int, int]:
    """
    (leaves, nodes) of the modified transition tree of w.

    A dominant permutation is a leaf.  Otherwise let p be the largest
    position topping a 132 pattern and q the position of the largest value
    after p below w_p that has a smaller value before p; with v = w t_{p,q}
    the children are v t_{i,p} for every i < p that lengthens v.  The leaf
    count is the number of EG-pipedreams of w.
    """
    if w in memo:
        return memo[w]
    n = len(w)
    if _is_dominant(w):
        memo[w] = (1, 1)
        return memo[w]
    p = max(
        t
        for t in range(2, n)
        if any(w[i - 1] < w[j - 1] < w[t - 1] for i in range(1, t) for j in range(t + 1, n + 1))
    )
    q = max(
        j
        for j in range(p + 1, n + 1)
        if w[j - 1] < w[p - 1] and any(w[i - 1] < w[j - 1] for i in range(1, p))
    )
    v = _swap(w, p, q)
    leaves, nodes = 0, 1
    for i in range(1, p):
        if _covers(v, i, p):
            child_leaves, child_nodes = transition_tree_size(_swap(v, i, p), memo)
            leaves += child_leaves
            nodes += child_nodes
    memo[w] = (leaves, nodes)
    return memo[w]


class Features:
    """Selection features of a permutation, memoised across one generation."""

    def __init__(self) -> None:
        self._words: dict[Perm, int] = {}
        self._tree: dict[Perm, tuple[int, int]] = {}

    def value(self, name: str, w: Perm) -> int:
        if name == "length":
            return length(w)
        if name == "fixes_n":
            return int(w[-1] == len(w))
        if name == "reduced_words":
            return count_reduced_words(w, self._words)
        if name == "letters":
            # Letters inserted by the default expansion route: one word of
            # length l(w) per reduced word.
            return count_reduced_words(w, self._words) * length(w)
        if name == "eg_pipedreams":
            return transition_tree_size(w, self._tree)[0]
        if name == "tree_nodes":
            return transition_tree_size(w, self._tree)[1]
        raise ValueError(f"unknown feature {name!r}")


@dataclass(frozen=True)
class Tier:
    """`count` distinct permutations of S_n, n drawn from `sizes`, with
    every feature of `bands` inside its closed interval."""

    count: int
    sizes: tuple[int, ...]
    bands: tuple[tuple[str, int, int], ...]

    def rule(self) -> str:
        group = "-".join(f"S{n}" for n in self.sizes)
        bands = ", ".join(f"{lo} <= {name} <= {hi}" for name, lo, hi in self.bands)
        return f"{self.count} of {group} with {bands}"

    def accepts(self, w: Perm, features: Features) -> bool:
        return all(lo <= features.value(name, w) <= hi for name, lo, hi in self.bands)


@dataclass(frozen=True)
class Selection:
    anchors: tuple[Perm, ...]
    tiers: tuple[Tier, ...]

    def rule(self) -> str:
        parts = []
        if self.anchors:
            parts.append("anchors " + " ".join(format_perm(w) for w in self.anchors))
        parts.extend(tier.rule() for tier in self.tiers)
        return "; ".join(parts)


def generate(selection: Selection, seed: int) -> list[Perm]:
    """
    The anchors plus each tier's draws, shuffled; a pure function of the
    selection and the seed.  Draws are uniform over S_n and rejected until
    the tier's bands hold.
    """
    rng = random.Random(seed)
    features = Features()
    chosen = list(selection.anchors)
    taken = set(chosen)
    for tier in selection.tiers:
        picked = 0
        for _ in range(MAX_DRAWS_PER_TIER):
            if picked == tier.count:
                break
            n = rng.choice(tier.sizes)
            w = tuple(rng.sample(range(1, n + 1), n))
            if w in taken or not tier.accepts(w, features):
                continue
            chosen.append(w)
            taken.add(w)
            picked += 1
        if picked < tier.count:
            raise RuntimeError(f"tier exhausted its draws: {tier.rule()}")
    rng.shuffle(chosen)
    return chosen


def format_perm(w: Perm) -> str:
    return "".join(str(v) for v in w) if len(w) <= 9 else ",".join(str(v) for v in w)


def digest(perms: list[Perm]) -> str:
    return hashlib.sha256(json.dumps([list(w) for w in perms]).encode()).hexdigest()
