"""
The shape-preserving correspondence between reduced word tableaux and
EG-pipedreams.

Forward, the column reading word of the tableau steers a walk down the
pipedream-decorated transition tree: at each node the Little map for the
node's expansion box turns the current word into a reduced word of exactly
one child.  Backward, the walk is undone from the pipedream alone: reverse
droops consume the NW elbows smallest-first, and inverting the Little maps
in the same order carries the frozen tableau's column word back up to a
reduced word of the original permutation.  Each walk is returned as a
list of Step records, one for the start and one per box consumed, and
every consumer (``gamma``, ``gamma_inverse``, ``word_of_pipedream``, the
command line) reads those records.

Two facts are asserted at every step of either word chain: the recording
tableau of the reversed word never changes, and the insertion tableau of
the reversed word has the current word as its column reading word.  Each
step keeps that insertion tableau; at step 0 it is the tableau the walk
starts from, and at the last step the one it ends on.
"""

from __future__ import annotations

from typing import NamedTuple

from .permutations import Perm, code_partition, format_permutation, perm_from_code
from .pipedreams import BumplessPipedream, is_eg, reverse_droop, rothe, validate
from .tableaux import (
    Tableau,
    column_reading_word,
    eg_insert,
    format_tableau,
    frozen_tableau,
    is_reduced_word_tableau,
    shape,
)
from .trees import eg_tree
from .words import Word, evaluate, little_map, little_map_inverse, reverse


def _check_chain_step(tau: Word, recording: Tableau) -> Tableau:
    p, q = eg_insert(reverse(tau).letters)
    assert q == recording, "recording tableau drifted along the word chain"
    assert column_reading_word(p) == tau.letters, "column word not recovered"
    return p


class Step(NamedTuple):
    """
    One record of a walk: the box consumed to get here (None at the
    start), the word, the permutation it evaluates to, the pipedream, and
    the insertion tableau of the reversed word.
    """

    box: tuple[int, int] | None
    word: Word
    perm: Perm
    pipedream: BumplessPipedream
    tableau: Tableau


def forward_walk(t: Tableau, w: Perm) -> list[Step]:
    """
    The walk of a reduced word tableau for w down the EG tree of w.  It
    starts at the column word of t, at w and its Rothe pipedream; each
    edge applies the Little map for the node's expansion box and lands on
    the one child whose permutation the new word evaluates to.

    >>> [s.box for s in forward_walk(((1, 4, 5), (2,), (5,)), (2, 3, 1, 6, 5, 4))]
    [None, (5, 4), (4, 5), (4, 3), (2, 4)]
    """
    if not is_reduced_word_tableau(t, w):
        raise ValueError(
            f"{format_tableau(t)!r} is not a reduced word tableau for "
            f"{format_permutation(w)}"
        )
    tree = eg_tree(w)
    node = tree.root
    tau = Word(column_reading_word(t), len(w))
    start, recording = eg_insert(reverse(tau).letters)
    assert start == t, "step 0 does not hold the tableau the walk starts from"
    steps = [Step(None, tau, w, node.pipedream, start)]
    while not node.leaf:
        u = node.perm
        p, q, _ = tree.nodes[node.children[0]].move
        box = (p, u[q - 1])
        tau = little_map(tau, *box)
        assert tau.n == len(w), "the bump chain never leaves the ambient size"
        tableau = _check_chain_step(tau, recording)
        target = evaluate(tau)
        matches = [c for c in node.children if tree.nodes[c].perm == target]
        assert len(matches) == 1, (u, target)
        node = tree.nodes[matches[0]]
        steps.append(Step(box, tau, node.perm, node.pipedream, tableau))
    assert steps[-1].tableau == frozen_tableau(node.perm)
    assert is_eg(node.pipedream) == shape(t), "shape drifted across the walk"
    return steps


def gamma(t: Tableau, w: Perm) -> BumplessPipedream:
    """
    Map a reduced word tableau for w to an EG-pipedream of w of the same
    shape: the pipedream at the end of the forward walk.

    >>> gamma(((1, 4, 5), (2,), (5,)), (2, 3, 1, 6, 5, 4)).rows[3]
    'r+jrjr'
    """
    return forward_walk(t, w)[-1].pipedream


def backward_walk(p: BumplessPipedream) -> list[Step]:
    """
    The walk that undoes the forward walk from an EG-pipedream alone.
    Reverse droops consume the NW elbows smallest-first down to the Rothe
    pipedream, and the inverse Little maps for the same boxes, in the same
    order, carry the frozen column word of the dominant leaf back up.
    Step 0 is that word at the leaf with p itself; step k holds the k-th
    box consumed, the word after its inverse Little map, the permutation
    of that word, and the pipedream after k reverse droops.  The last step
    holds the reduced word tableau of p.

    >>> [(s.box, s.perm) for s in backward_walk(rothe((2, 1, 3)))]
    [(None, (2, 1, 3))]
    """
    w = validate(p)
    lam = is_eg(p)
    if lam is None:
        raise ValueError(
            "not an EG-pipedream: empty boxes do not form a top-left partition"
        )
    boxes = []
    dreams = [p]
    while elbows := dreams[-1].nw_elbows():
        boxes.append(elbows[0])
        dreams.append(reverse_droop(dreams[-1], elbows[0]))
    assert dreams[-1] == rothe(w), "reverse droops did not land on the Rothe pipedream"
    assert boxes == sorted(boxes), "NW elbows were not consumed in increasing order"

    leaf = perm_from_code(lam + (0,) * (p.n - len(lam)))
    assert code_partition(leaf) == lam
    frozen = frozen_tableau(leaf)
    tau = Word(column_reading_word(frozen), p.n)
    start, recording = eg_insert(reverse(tau).letters)
    assert start == frozen, "step 0 does not hold the tableau the walk starts from"
    steps = [Step(None, tau, leaf, p, start)]
    for box, dream in zip(boxes, dreams[1:]):
        try:
            tau = little_map_inverse(tau, *box)
        except ValueError as exc:
            # The chain stays in the image by construction: a fault here
            # is the program's, not the input's.
            raise AssertionError(f"inverse Little map failed at {box}: {exc}") from exc
        tableau = _check_chain_step(tau, recording)
        steps.append(Step(box, tau, evaluate(tau), dream, tableau))
    assert steps[-1].perm == w, "inverse chain missed the traced permutation"
    t = steps[-1].tableau
    assert shape(t) == lam, "shape drifted across the walk"
    assert is_reduced_word_tableau(t, w)
    return steps


def word_of_pipedream(p: BumplessPipedream) -> Word:
    """
    The reduced word an EG-pipedream stands for: the word at the end of
    the backward walk.

    >>> word_of_pipedream(rothe((2, 1, 3))).letters
    (1,)
    """
    return backward_walk(p)[-1].word


def gamma_inverse(p: BumplessPipedream) -> Tableau:
    """
    Map an EG-pipedream back to the reduced word tableau of the same shape:
    the tableau at the end of the backward walk.

    >>> gamma_inverse(rothe((3, 1, 2)))
    ((1, 2),)
    """
    return backward_walk(p)[-1].tableau
