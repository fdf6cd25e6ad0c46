import gc
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import grassmannian_shape
from stanley import pipedreams, trees
from stanley.bijection import gamma, gamma_inverse
from stanley.permutations import (
    all_permutations,
    apply_transposition,
    code_partition,
    identity,
    is_dominant,
    is_grassmannian,
    length,
    up_pivots,
    up_slots,
)
from stanley.pipedreams import enumerate_all, is_eg, rothe
from stanley.polynomials import eg_coeffs, stanley_truncated
from stanley.trees import (
    eg_tree,
    leaf_path,
    ls_tree,
    maximal_transition,
    mls_tree,
    render_ascii,
    to_json,
)

perms = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)

W231654 = (2, 3, 1, 6, 5, 4)
W321654 = (3, 2, 1, 6, 5, 4)

# Schur expansion of the 321654 Stanley function, from the enumeration of
# increasing tableaux whose column word is reduced for it.
COEFFS_321654 = {
    (4, 2): 1,
    (4, 1, 1): 1,
    (3, 3): 1,
    (3, 2, 1): 2,
    (3, 1, 1, 1): 1,
    (2, 2, 2): 1,
    (2, 2, 1, 1): 1,
}


def test_maximal_transition_branching():
    r, s, pivots, children = maximal_transition(W231654)
    assert (r, s) == (5, 6)
    assert pivots == frozenset({2, 3})
    assert children == frozenset({(2, 4, 1, 6, 3, 5), (2, 3, 4, 6, 1, 5)})


def test_maximal_transition_embedding():
    # 321 has no pivot above its last descent, so the children come from
    # the transition of 1x321 and live in S_4.
    r, s, pivots, children = maximal_transition((3, 2, 1))
    assert (r, s) == (2, 3)
    assert pivots == frozenset()
    assert children == frozenset({(2, 4, 1, 3)})

    r, s, pivots, children = maximal_transition((2, 3, 5, 4, 1, 6))
    assert (r, s) == (4, 5)
    assert pivots == frozenset()
    assert children == frozenset({(2, 3, 4, 6, 1, 5, 7)})


def test_maximal_transition_identity():
    with pytest.raises(ValueError):
        maximal_transition((1, 2, 3))


def test_maximal_transition_drops_length():
    for w in all_permutations(4):
        if w == identity(4):
            continue
        _, _, _, children = maximal_transition(w)
        assert children
        for v in children:
            assert length(v) == length(w)


# The transition sets of u at k: the pivots I, positions i < k, and the
# slots S, positions j > k, whose transposition with k lengthens u by one.


def test_transition_sets_goldens():
    u = (6, 4, 5, 8, 7, 9, 3, 2, 1)
    assert up_pivots(u, 4) == [1, 3]
    assert {apply_transposition(u, i, 4) for i in up_pivots(u, 4)} == {
        (8, 4, 5, 6, 7, 9, 3, 2, 1),
        (6, 4, 8, 5, 7, 9, 3, 2, 1),
    }

    u = (2, 4, 1, 5, 3, 6)
    assert up_slots(u, 5) == [6]
    assert {apply_transposition(u, 5, j) for j in up_slots(u, 5)} == {
        (2, 4, 1, 5, 6, 3)
    }


def test_transition_sets_match_the_length_definition():
    # Oracle for the covering test behind the pivot and slot sets: i is a
    # pivot and j a slot of u at k exactly when the transposition makes u
    # one longer, by Coxeter length.  Every pair of positions of every
    # permutation in S1-S6 is covered.
    def lengthens(u, a, b):
        return length(apply_transposition(u, a, b)) == length(u) + 1

    for n in range(1, 7):
        for u in all_permutations(n):
            for k in range(1, n + 1):
                assert up_pivots(u, k) == [
                    i for i in range(1, k) if lengthens(u, i, k)
                ], (u, k)
                assert up_slots(u, k) == [
                    j for j in range(k + 1, n + 1) if lengthens(u, k, j)
                ], (u, k)


@given(perms, st.integers(min_value=1, max_value=5))
def test_transition_sets_lengthen(w, k):
    if k > len(w):
        k = 1 + k % len(w)
    phi = [apply_transposition(w, i, k) for i in up_pivots(w, k)]
    psi = [apply_transposition(w, k, j) for j in up_slots(w, k)]
    for v in phi + psi:
        assert length(v) == length(w) + 1


def test_transition_splits_stanley_function():
    for w in [W231654, (3, 2, 1), (2, 3, 5, 4, 1, 6)]:
        m = length(w)
        _, _, _, children = maximal_transition(w)
        total = stanley_truncated(w, m)
        parts = [stanley_truncated(v, m) for v in children]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        assert acc == total


# Node table for the modified tree of 231654: (id, parent, perm, move).
MLS_231654 = [
    (0, None, (2, 3, 1, 6, 5, 4), None),
    (1, 0, (2, 4, 1, 6, 3, 5), (5, 6, 2)),
    (2, 0, (2, 3, 4, 6, 1, 5), (5, 6, 3)),
    (3, 1, (2, 5, 1, 4, 3, 6), (4, 6, 2)),
    (4, 1, (2, 4, 5, 1, 3, 6), (4, 6, 3)),
    (5, 3, (3, 5, 1, 2, 4, 6), (4, 5, 1)),
    (6, 3, (2, 5, 3, 1, 4, 6), (4, 5, 3)),
    (7, 5, (4, 3, 1, 2, 5, 6), (2, 5, 1)),
    (8, 6, (4, 2, 3, 1, 5, 6), (2, 5, 1)),
    (9, 4, (3, 4, 2, 1, 5, 6), (3, 5, 1)),
    (10, 2, (2, 3, 5, 4, 1, 6), (4, 6, 3)),
    (11, 10, (2, 4, 3, 5, 1, 6), (3, 4, 2)),
    (12, 11, (3, 2, 4, 5, 1, 6), (2, 3, 1)),
]


def test_mls_tree_231654_structure():
    tree = mls_tree(W231654)
    assert tree.kind == "mls"
    table = [(n.id, n.parent, n.perm, n.move) for n in tree.nodes]
    assert table == MLS_231654
    assert all(n.n == 6 for n in tree.nodes)

    leaves = tree.leaves()
    assert {n.perm for n in leaves} == {
        (4, 3, 1, 2, 5, 6),
        (4, 2, 3, 1, 5, 6),
        (3, 4, 2, 1, 5, 6),
        (3, 2, 4, 5, 1, 6),
    }
    assert all(is_dominant(n.perm) for n in leaves)
    shapes = Counter(code_partition(n.perm) for n in leaves)
    assert dict(shapes) == {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}


def test_mls_tree_321654_leaves():
    tree = mls_tree(W321654)
    leaves = tree.leaves()
    assert len(leaves) == 8
    shapes = Counter(code_partition(n.perm) for n in leaves)
    assert dict(shapes) == COEFFS_321654


def test_mls_tree_dominant_is_single_node():
    tree = mls_tree((4, 2, 3, 1))
    assert len(tree.nodes) == 1
    assert tree.root.leaf


def test_mls_leaf_shapes_match_coefficients():
    sample = list(all_permutations(4))
    rng = random.Random(9)
    sample += rng.sample(list(all_permutations(5)), 15)
    for w in sample:
        leaves = mls_tree(w).leaves()
        shapes = Counter(code_partition(n.perm) for n in leaves)
        assert dict(shapes) == dict(eg_coeffs(w, method="tableaux")), w


def test_mls_expansion_splits_stanley_function():
    tree = mls_tree(W231654)
    m = length(W231654)
    for node in tree.nodes:
        if node.leaf:
            continue
        total = stanley_truncated(node.perm, m)
        parts = [stanley_truncated(tree.nodes[c].perm, m) for c in node.children]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        assert acc == total, node.perm


def test_eg_tree_mirrors_mls_tree():
    eg = eg_tree(W231654)
    assert eg.kind == "eg"
    table = [(n.id, n.parent, n.perm, n.move) for n in eg.nodes]
    assert table == MLS_231654
    assert eg.root.pipedream == rothe(W231654)
    for node in eg.nodes:
        assert node.pipedream is not None


def test_eg_tree_leaves_are_the_eg_pipedreams():
    eg = eg_tree(W231654)
    got = {n.pipedream for n in eg.leaves()}
    want = {p for p in enumerate_all(W231654) if is_eg(p) is not None}
    assert got == want

    by_perm = {n.perm: n.pipedream for n in eg.leaves()}
    chain_leaf = by_perm[(4, 2, 3, 1, 5, 6)]
    assert chain_leaf.rows == (
        "...r--",
        ".r-jr-",
        ".|r-+-",
        "r+jrjr",
        "||rjr+",
        "|||r++",
    )


def test_eg_tree_dominant_root():
    tree = eg_tree((3, 4, 2, 1))
    assert len(tree.nodes) == 1
    assert tree.root.pipedream == rothe((3, 4, 2, 1))
    assert is_eg(tree.root.pipedream) == (2, 2, 1)


def test_eg_tree_matches_mls_everywhere():
    # Node for node: eg_tree is the mls tree with a droop on every edge.
    for w in (w for n in range(1, 7) for w in all_permutations(n)):
        mls = mls_tree(w)
        eg = eg_tree(w)
        assert [(n.id, n.parent, n.perm, n.move) for n in mls.nodes] == [
            (n.id, n.parent, n.perm, n.move) for n in eg.nodes
        ]
        for leaf in eg.leaves():
            assert is_eg(leaf.pipedream) == code_partition(leaf.perm)


# Node table for the classical tree of 231654: (id, parent, perm, n, move).
# Embedding nodes carry 1 x perm, a larger ambient size and no move.
LS_231654 = [
    (0, None, (2, 3, 1, 6, 5, 4), 6, None),
    (1, 0, (2, 4, 1, 6, 3, 5), 6, (5, 6, 2)),
    (2, 0, (2, 3, 4, 6, 1, 5), 6, (5, 6, 3)),
    (3, 1, (2, 5, 1, 4, 3, 6), 6, (4, 6, 2)),
    (4, 1, (2, 4, 5, 1, 3, 6), 6, (4, 6, 3)),
    (5, 3, (3, 5, 1, 2, 4, 6), 6, (4, 5, 1)),
    (6, 3, (2, 5, 3, 1, 4, 6), 6, (4, 5, 3)),
    (7, 6, (1, 3, 6, 4, 2, 5, 7), 7, None),
    (8, 7, (2, 3, 6, 1, 4, 5, 7), 7, (4, 5, 1)),
    (9, 4, (3, 4, 2, 1, 5, 6), 6, (3, 5, 1)),
    (10, 9, (1, 4, 5, 3, 2, 6, 7), 7, None),
    (11, 10, (2, 4, 5, 1, 3, 6, 7), 7, (4, 5, 1)),
    (12, 2, (2, 3, 5, 4, 1, 6), 6, (4, 6, 3)),
    (13, 12, (1, 3, 4, 6, 5, 2, 7), 7, None),
    (14, 13, (2, 3, 4, 6, 1, 5, 7), 7, (5, 6, 1)),
]


def count_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) target, wrapped at every
    stanley module attribute bound to it, as the benchmark's tracer does."""
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "stanley"]
    for home, name in targets:
        original = getattr(home, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def test_eg_tree_calls_the_traced_names(monkeypatch):
    # The benchmark's tracer wraps a function at every stanley module
    # attribute bound to it, so eg_tree must reach mls_tree and
    # max_pivot_box through those attributes for their calls to count.
    calls = count_calls(monkeypatch, (trees, "mls_tree"), (pipedreams, "max_pivot_box"))
    tree = eg_tree(W231654)
    internal = sum(not node.leaf for node in tree.nodes)
    assert internal == 9
    assert calls == {"mls_tree": 1, "max_pivot_box": internal}


def test_eg_tree_is_shared_while_held(monkeypatch):
    tree = eg_tree(W231654)
    calls = count_calls(monkeypatch, (trees, "mls_tree"))
    assert eg_tree(W231654) is tree
    assert calls == {}

    # Nothing keeps the tree once its last holder drops it.
    del tree
    assert W231654 not in trees._EG_TREES
    rebuilt = eg_tree(W231654)
    assert calls == {"mls_tree": 1}
    assert trees._EG_TREES[W231654] is rebuilt


def test_eg_tree_that_fails_a_check_is_not_shared(monkeypatch):
    monkeypatch.setattr(trees, "is_eg", lambda p: None)
    for _ in range(2):
        with pytest.raises(AssertionError):
            eg_tree(W231654)
        assert W231654 not in trees._EG_TREES


def test_walks_leave_the_shared_tree_unchanged():
    # gamma reads the tree its caller holds; after a round trip from every
    # leaf, the tree reads as a tree built afresh.
    for w in (w for n in range(1, 6) for w in all_permutations(n)):
        tree = eg_tree(w)
        before = to_json(tree)
        for leaf in tree.leaves():
            assert gamma(gamma_inverse(leaf.pipedream), w) == leaf.pipedream
        assert trees._EG_TREES[w] is tree
        assert to_json(tree) == before
        del tree
        assert w not in trees._EG_TREES
        assert to_json(eg_tree(w)) == before, w


def test_ls_tree_231654_structure():
    tree = ls_tree(W231654)
    assert tree.kind == "ls"
    table = [(n.id, n.parent, n.perm, n.n, n.move) for n in tree.nodes]
    assert table == LS_231654

    leaves = tree.leaves()
    assert {n.perm for n in leaves} == {
        (3, 5, 1, 2, 4, 6),
        (2, 3, 4, 6, 1, 5, 7),
        (2, 3, 6, 1, 4, 5, 7),
        (2, 4, 5, 1, 3, 6, 7),
    }
    assert all(is_grassmannian(n.perm) for n in leaves)
    shapes = Counter(grassmannian_shape(n.perm) for n in leaves)
    assert dict(shapes) == {(3, 2): 1, (2, 1, 1, 1): 1, (3, 1, 1): 1, (2, 2, 1): 1}


def test_ls_tree_grassmannian_is_single_node():
    for w in [(2, 4, 5, 1, 3, 6), (1, 3, 2), identity(4)]:
        tree = ls_tree(w)
        assert len(tree.nodes) == 1
        assert tree.root.leaf


def test_ls_leaf_shapes_match_coefficients():
    sample = list(all_permutations(4))
    rng = random.Random(11)
    sample += rng.sample(list(all_permutations(5)), 12)
    for w in sample:
        leaves = ls_tree(w).leaves()
        assert all(is_grassmannian(n.perm) for n in leaves)
        shapes = Counter(grassmannian_shape(n.perm) for n in leaves)
        assert dict(shapes) == dict(eg_coeffs(w, method="tableaux")), w


@settings(deadline=None)
@given(perms)
def test_ls_and_mls_leaf_shapes_agree(w):
    ls_shapes = Counter(grassmannian_shape(n.perm) for n in ls_tree(w).leaves())
    mls_shapes = Counter(code_partition(n.perm) for n in mls_tree(w).leaves())
    assert ls_shapes == mls_shapes


def test_ls_expansion_preserves_stanley_function():
    tree = ls_tree(W231654)
    m = length(W231654)
    for node in tree.nodes:
        if node.leaf:
            continue
        total = stanley_truncated(node.perm, m)
        parts = [stanley_truncated(tree.nodes[c].perm, m) for c in node.children]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        assert acc == total, node.perm


def test_leaf_path():
    tree = mls_tree(W231654)
    leaf = next(n for n in tree.leaves() if n.perm == (4, 2, 3, 1, 5, 6))
    path = leaf_path(tree, leaf)
    assert [n.perm for n in path] == [
        (2, 3, 1, 6, 5, 4),
        (2, 4, 1, 6, 3, 5),
        (2, 5, 1, 4, 3, 6),
        (2, 5, 3, 1, 4, 6),
        (4, 2, 3, 1, 5, 6),
    ]
    assert [n.move for n in path] == [None, (5, 6, 2), (4, 6, 2), (4, 5, 3), (2, 5, 1)]

    assert leaf_path(tree, leaf.id) == path
    with pytest.raises(ValueError):
        leaf_path(tree, 0)
    assert len(tree.nodes) == 13
    for bad in (13, -1):
        with pytest.raises(ValueError, match=f"no node {bad}: the ids run from 0 to 12"):
            leaf_path(tree, bad)


def test_to_json_shapes():
    data = to_json(mls_tree((1, 3, 2)))
    assert data["schema"] == 1
    assert data["kind"] == "mls"
    assert data["nodes"] == [
        {
            "id": 0,
            "parent": None,
            "perm": [1, 3, 2],
            "n": 3,
            "move": None,
            "pipedream": None,
            "leaf": False,
        },
        {
            "id": 1,
            "parent": 0,
            "perm": [2, 1, 3],
            "n": 3,
            "move": {"p": 2, "q": 3, "i": 1},
            "pipedream": None,
            "leaf": True,
        },
    ]

    decorated = to_json(eg_tree((1, 3, 2)))
    assert decorated["nodes"][0]["pipedream"] == "r--\n|.r\n|r+"

    embedded = to_json(ls_tree((3, 2, 1)))
    embed_nodes = [n for n in embedded["nodes"] if n["move"] is None and n["parent"] is not None]
    assert embed_nodes and all(n["n"] == 4 for n in embed_nodes)


def test_render_ascii():
    text = render_ascii(ls_tree(W231654))
    lines = text.splitlines()
    assert lines[0] == "231654"
    assert any("embedded" in line for line in lines)
    assert any("p=5 q=6 i=2" in line for line in lines)
    assert len(lines) == len(LS_231654)


def test_render_ascii_leaves_no_cycles():
    # Everything render_ascii builds is freed by reference counting when
    # it returns, without waiting for the cycle collector.
    tree = ls_tree(W321654)
    gc.disable()
    try:
        gc.collect()
        render_ascii(tree)
        assert gc.collect() == 0
    finally:
        gc.enable()
