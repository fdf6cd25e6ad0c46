import random
import weakref
from itertools import islice

import pytest

import stanley.bijection
import stanley.pipedreams
import stanley.tableaux
import stanley.words

import oracles
from oracles import little_map_by_words, little_map_inverse_by_complement

from stanley.bijection import (
    backward_walk,
    forward_walk,
    gamma,
    gamma_inverse,
    word_of_pipedream,
)
from stanley.permutations import all_permutations, identity, inverse, is_dominant
from stanley.pipedreams import enumerate_all, is_eg, parse, render, rothe, validate
from stanley.tableaux import (
    _tableaux_of,
    column_reading_word,
    enumerate_reduced_word_tableaux,
    frozen_tableau,
    insertion_tableau,
    shape,
)
from stanley.trees import eg_tree, leaf_path
from stanley.words import evaluate, reverse

W231654 = (2, 3, 1, 6, 5, 4)
W321654 = (3, 2, 1, 6, 5, 4)

WORKED_TABLEAU = ((1, 4, 5), (2,), (5,))
WORKED_PIPEDREAM = parse("...r--\n.r-jr-\n.|r-+-\nr+jrjr\n||rjr+\n|||r++")


def test_worked_pair_forward():
    p = gamma(WORKED_TABLEAU, W231654)
    assert p == WORKED_PIPEDREAM
    assert is_eg(p) == (3, 1, 1)
    assert p.nw_elbows() == [(2, 4), (4, 3), (4, 5), (5, 4)]


def test_worked_pair_backward():
    assert gamma_inverse(WORKED_PIPEDREAM) == WORKED_TABLEAU


def test_worked_pair_word():
    assert word_of_pipedream(WORKED_PIPEDREAM).letters == (5, 4, 1, 2, 5)


def test_dominant_is_frozen_to_rothe():
    for w in [(3, 4, 2, 1), (4, 2, 3, 1), (2, 1, 3), identity(3)]:
        assert gamma(frozen_tableau(w), w) == rothe(w)
        assert gamma_inverse(rothe(w)) == frozen_tableau(w)


def test_gamma_rejects_foreign_tableau():
    with pytest.raises(ValueError):
        gamma(WORKED_TABLEAU, (3, 2, 1, 6, 5, 4))
    with pytest.raises(ValueError):
        gamma(((1, 2), (3,)), (2, 3, 1, 6, 5, 4))


def test_gamma_inverse_rejects_non_eg():
    stray = next(p for p in enumerate_all(W231654) if is_eg(p) is None)
    with pytest.raises(ValueError):
        gamma_inverse(stray)


def _check_walks(t, w, tree):
    walk = forward_walk(t, w)
    start, end = walk[0], walk[-1]
    assert start.box is None
    assert start.word.letters == column_reading_word(t)
    assert (start.perm, start.pipedream) == (w, rothe(w))
    assert is_dominant(end.perm)
    assert end.word.letters == column_reading_word(frozen_tableau(end.perm))
    # One record per node on the path from the root to the leaf reached.
    (leaf,) = [node for node in tree.leaves() if node.pipedream == end.pipedream]
    path = leaf_path(tree, leaf)
    assert [(s.perm, s.pipedream) for s in walk] == [
        (node.perm, node.pipedream) for node in path
    ]

    # The backward walk retraces the forward one: the same boxes, words and
    # permutations in reverse order.
    back = backward_walk(end.pipedream)
    assert [s.box for s in back[1:]] == [s.box for s in walk[:0:-1]]
    assert [(s.word, s.perm) for s in back] == [(s.word, s.perm) for s in walk[::-1]]
    assert [s.tableau for s in back] == [s.tableau for s in walk[::-1]]
    return end.pipedream


def _roundtrip(w):
    tabs = enumerate_reduced_word_tableaux(w)
    egs = {p for p in enumerate_all(w) if is_eg(p) is not None}
    tree = eg_tree(w)
    image = {}
    for t in tabs:
        p = gamma(t, w)
        assert p == _check_walks(t, w, tree), (w, t)
        assert is_eg(p) == shape(t), (w, t)
        assert p not in image, (w, t)
        image[p] = t
        assert gamma_inverse(p) == t, (w, t)
    assert set(image) == egs, w
    for p in egs:
        assert gamma(gamma_inverse(p), w) == p, w
        assert evaluate(backward_walk(p)[-1].word) == validate(p), w


def test_roundtrip_s4():
    for w in all_permutations(4):
        _roundtrip(w)


def test_roundtrip_s5_sample():
    rng = random.Random(23)
    for w in rng.sample(list(all_permutations(5)), 10):
        _roundtrip(w)


def test_theorem_on_all_of_s6():
    # For every w in S6, gamma maps the reduced word tableaux of w one to
    # one onto its EG-pipedreams, keeping the shape, and gamma_inverse
    # undoes it.
    tableaux = 0
    for w in all_permutations(6):
        tabs = enumerate_reduced_word_tableaux(w)
        egs = {p for p in enumerate_all(w) if is_eg(p) is not None}
        images = [gamma(t, w) for t in tabs]
        assert len(set(images)) == len(tabs) and set(images) == egs, w
        for t, p in zip(tabs, images):
            assert is_eg(p) == shape(t) and gamma_inverse(p) == t, (w, t)
        tableaux += len(tabs)
    assert tableaux == 1007


def _theorem_on(elements):
    """The assertions of the S6 test on each w of elements, and the number
    of reduced word tableaux checked.  The tableaux come from one
    weak-order memo shared across the elements, and the EG-pipedreams from
    the leaves of the EG tree, which equal the filtered closure on S1-S6
    (tests/test_cli.py)."""
    memo = {}
    tableaux = 0
    for w in elements:
        tabs = _tableaux_of(inverse(w), memo)
        tree = eg_tree(w)
        leaves = [leaf.pipedream for leaf in tree.leaves()]
        egs = set(leaves)
        assert len(egs) == len(leaves), w
        images = [gamma(t, w) for t in tabs]
        assert len(set(images)) == len(tabs) and set(images) == egs, w
        for t, p in zip(tabs, images):
            assert is_eg(p) == shape(t) and gamma_inverse(p) == t, (w, t)
        tableaux += len(tabs)
    return tableaux


def test_theorem_on_all_of_s7():
    assert _theorem_on(all_permutations(7)) == 9361


def test_theorem_on_every_16th_element_of_s8():
    # Every 16th element of S8 in lexicographic order, from the first.
    elements = list(islice(all_permutations(8), 0, None, 16))
    assert len(elements) == 2520
    assert _theorem_on(elements) == 4065


def test_roundtrip_231654():
    _roundtrip(W231654)


def test_roundtrip_321654():
    # Eight tableaux onto eight pipedreams, shapes matched pairwise.
    tabs = enumerate_reduced_word_tableaux(W321654)
    egs = {p for p in enumerate_all(W321654) if is_eg(p) is not None}
    assert len(tabs) == len(egs) == 8
    _roundtrip(W321654)


def test_each_step_holds_the_insertion_tableau_of_its_reversed_word():
    # On every EG-pipedream of S1-S6, both walks keep at each step the
    # insertion tableau of the reversed word, and start on the tableau
    # they are given or on the frozen tableau of the leaf.
    for n in range(1, 7):
        for w in all_permutations(n):
            for leaf in eg_tree(w).leaves():
                back = backward_walk(leaf.pipedream)
                t = back[-1].tableau
                assert back[0].tableau == frozen_tableau(back[0].perm), w
                walk = forward_walk(t, w)
                assert walk[0].tableau == t, w
                for step in back + walk:
                    assert step.tableau == insertion_tableau(
                        reverse(step.word).letters
                    ), (w, step)


def test_each_walk_inserts_once_per_step(monkeypatch):
    # Insertions reached through the tableaux module (insertion_tableau)
    # are counted too.
    calls = []
    eg_insert = stanley.tableaux.eg_insert

    def counting(letters):
        calls.append(letters)
        return eg_insert(letters)

    monkeypatch.setattr(stanley.bijection, "eg_insert", counting)
    monkeypatch.setattr(stanley.tableaux, "eg_insert", counting)
    for w in [W231654, W321654, (1, 4, 7, 2, 5, 8, 3, 6, 9), (2, 1, 3)]:
        for leaf in eg_tree(w).leaves():
            p = leaf.pipedream
            steps = len(backward_walk(p))
            calls.clear()
            t = gamma_inverse(p)
            assert len(calls) == steps, (w, p)
            steps = len(forward_walk(t, w))
            calls.clear()
            assert gamma(t, w) == p
            assert len(calls) == steps, (w, t)


def test_each_walk_scans_each_chain_word_once(monkeypatch):
    # A walk scans its start word, and each bump of its Little maps scans
    # the word it makes; the last scan of a chain hands the next map its
    # permutation and crossing pairs.  So a walk makes 1 + (bumps) scans.
    # The bumps are counted on the word-at-a-time oracles, whose results
    # are the walk's words.  The only evaluations are the two of the
    # reduced word tableau check; the chain makes none.
    scans, evaluations, bumps = [], [], []
    crossings = stanley.words._crossings
    monkeypatch.setattr(
        stanley.words, "_crossings", lambda *args: scans.append(args) or crossings(*args)
    )
    for module in (stanley.words, stanley.tableaux):
        monkeypatch.setattr(
            module, "evaluate", lambda a, f=module.evaluate: evaluations.append(a) or f(a)
        )
    monkeypatch.setattr(
        oracles, "bump_at", lambda *args, f=oracles.bump_at: bumps.append(args) or f(*args)
    )

    def oracle_bumps(steps, theta):
        bumps.clear()
        for before, after in zip(steps, steps[1:]):
            assert theta(before.word, *after.box) == after.word
        return len(bumps)

    walks = further = 0
    for w in [W231654, W321654, (1, 4, 7, 2, 5, 8, 3, 6, 9), (2, 1, 3), (4, 1, 5, 3, 2)]:
        for leaf in eg_tree(w).leaves():
            scans.clear()
            evaluations.clear()
            back = backward_walk(leaf.pipedream)
            made = len(scans), len(evaluations)
            assert made == (1 + oracle_bumps(back, little_map_inverse_by_complement), 2)
            scans.clear()
            evaluations.clear()
            walk = forward_walk(back[-1].tableau, w)
            made = len(scans), len(evaluations)
            assert made == (1 + oracle_bumps(walk, little_map_by_words), 2)
            walks += 1
            further += made[0] - len(walk)
    # 16 walks each way; the forward maps bump 32 times past their first bump.
    assert (walks, further) == (16, 32)


def test_round_trip_traces_each_pipedream_once(monkeypatch):
    traced = []
    trace = stanley.pipedreams._trace

    def counting(p):
        traced.append(p)
        return trace(p)

    monkeypatch.setattr(stanley.pipedreams, "_trace", counting)
    for w in [(3, 2, 1, 6, 5, 4), (1, 4, 7, 2, 5, 8, 3, 6, 9)]:
        tree = eg_tree(w)
        for leaf in tree.leaves():
            assert gamma(gamma_inverse(leaf.pipedream), w) == leaf.pipedream
    # traced holds every traced object, so no id is reused while it runs
    # and every traced grid stays alive: equal rows are never traced again.
    assert traced
    assert len({id(p) for p in traced}) == len(traced)
    assert len({(p.n, p.rows) for p in traced}) == len(traced)


def test_backward_walk_reads_the_droops_of_a_held_tree(monkeypatch):
    # While the EG tree is held, each reverse droop reads the droop that
    # made its grid, recorded beside the trace, and droops nothing again.
    # On the grid parsed afresh once the tree is gone, each one droops
    # its lift again.  The two walks are equal.  A map of its own keeps
    # grids alive in other tests out of the count.
    monkeypatch.setattr(stanley.pipedreams, "_TRACED", weakref.WeakKeyDictionary())
    droops = []
    droop = stanley.pipedreams.droop
    monkeypatch.setattr(
        stanley.pipedreams, "droop", lambda *args: droops.append(args) or droop(*args)
    )

    def walk(p):
        """The steps of p's backward walk, grids as rows, and the number
        of droops it made; no grid of the walk outlives the call."""
        droops.clear()
        steps = [s._replace(pipedream=s.pipedream.rows) for s in backward_walk(p)]
        return steps, len(droops)

    rng = random.Random(29)
    elements = [w for n in range(1, 7) for w in all_permutations(n)]
    elements += rng.sample(list(all_permutations(7)), 40)
    walks = 0
    for w in elements:
        tree = eg_tree(w)
        held = {render(leaf.pipedream): walk(leaf.pipedream) for leaf in tree.leaves()}
        del tree  # trees hold no reference cycle, so the tree dies here
        for text, (steps, made) in held.items():
            assert made == 0, (w, text)
            assert walk(parse(text)) == (steps, len(steps) - 1), (w, text)
        walks += len(held)
    assert walks == 1248  # every EG-pipedream of S1-S6 and of the 40 from S7
