"""
End-to-end acceptance checks, one per headline claim of the package.

Each test prints a single "criterion N: pass/FAIL (...)" line (visible
with pytest -s) and then asserts.  All comparisons are exact; the only
tolerances are the wall-clock bounds stated inline.

Criterion 3 pins the expansion of 321654 as s_21 * s_21, written out by
hand: 321654 is 321 x 321, so its Stanley function is the product of two
copies of F_321 = s_21.  The test checks that literal against Stanley's
count of the 80 reduced words and against conjugation symmetry using the
standard library alone, then compares all four eg_coeffs routes with it.
"""

import math
import random
import time

from oracles import (
    conjugate,
    hook_length_count,
    schubert_by_staircase,
    schur_poly_by_tableaux,
    staircase,
)
from stanley.bijection import gamma, gamma_inverse, word_of_pipedream
from stanley.permutations import (
    all_permutations,
    apply_transposition,
    code_partition,
    is_dominant,
    length,
    up_pivots,
    up_slots,
)
from stanley.pipedreams import (
    enumerate_all,
    is_eg,
    max_pivot_box,
    parse,
    render,
    reverse_droop,
    rothe,
)
from stanley.polynomials import (
    SparsePoly,
    double_schubert,
    eg_coeffs,
    schubert_bjs,
    stanley_truncated,
    weight,
)
from stanley.tableaux import (
    column_reading_word,
    eg_insert,
    enumerate_reduced_word_tableaux,
    shape,
)
from stanley.trees import eg_tree, ls_tree, mls_tree
from stanley.words import evaluate, little_map, little_map_inverse, reverse, word

W231654 = (2, 3, 1, 6, 5, 4)
W321654 = (3, 2, 1, 6, 5, 4)

WORKED_TABLEAU = ((1, 4, 5), (2,), (5,))
WORKED_GRID = "...r--\n.r-jr-\n.|r-+-\nr+jrjr\n||rjr+\n|||r++"


def report(num, ok, elapsed, bound=None):
    verdict = "pass" if ok and (bound is None or elapsed < bound) else "FAIL"
    suffix = f", bound {bound} s" if bound is not None else ""
    print(f"criterion {num}: {verdict} ({elapsed:.3f} s{suffix})")


def test_criterion_1_insertion_golden():
    # Insertion of (2,3,1,6,4,3,2); exact tableaux, under 10 ms.
    start = time.perf_counter()
    p, q = eg_insert((2, 3, 1, 6, 4, 3, 2))
    elapsed = time.perf_counter() - start
    want_p = ((1, 2, 4), (2, 3), (4,), (6,))
    want_q = ((1, 2, 4), (3, 5), (6,), (7,))
    report(1, p == want_p and q == want_q, elapsed, 0.01)
    assert p == want_p
    assert q == want_q
    assert elapsed < 0.01


def test_criterion_2_little_map_goldens():
    # Pinned bump computations, forward and inverse, under 10 ms.
    start = time.perf_counter()
    single = little_map(word((3, 1, 4, 5, 2)), 5, 3).letters

    tau = word((5, 4, 1, 2, 5), 6)
    forward = []
    for k, v in [(5, 4), (4, 5), (4, 3), (2, 4)]:
        tau = little_map(tau, k, v)
        forward.append(tau.letters)

    inverse = []
    tau = word((3, 2, 1, 2, 3), 6)
    for k, v in [(2, 4), (4, 3), (4, 5), (5, 4)]:
        tau = little_map_inverse(tau, k, v)
        inverse.append(tau.letters)
    elapsed = time.perf_counter() - start

    chain = [(5, 3, 1, 2, 4), (4, 3, 1, 2, 4), (4, 3, 1, 2, 3), (3, 2, 1, 2, 3)]
    back = [(4, 3, 1, 2, 3), (4, 3, 1, 2, 4), (5, 3, 1, 2, 4), (5, 4, 1, 2, 5)]
    ok = single == (2, 1, 3, 4, 2) and forward == chain and inverse == back
    report(2, ok, elapsed, 0.01)
    assert single == (2, 1, 3, 4, 2)
    assert forward == chain
    assert inverse == back
    assert elapsed < 0.01


def test_criterion_3_required_expansion_321654():
    # 321654 = 321 x 321 (Stanley 1984; Edelman-Greene 1987), so
    # F_w = F_321 * F_321 = s_21 * s_21, and the Littlewood-Richardson
    # rule gives the seven shapes below, eight tableaux in all.  Two
    # checks on the literal itself, independent of the package:
    #   - Stanley's count #R(w) = sum c_lam f^lam.  w has C(6,3)*2*2 = 80
    #     reduced words, the shuffles of the two reduced words of each
    #     commuting copy of 321; with f^lam by the hook-length formula
    #     the sum is 9 + 10 + 5 + 2*16 + 10 + 5 + 9 = 80.
    #   - w is an involution and F_{w^-1} has the conjugate shapes of
    #     F_w, so the shapes are closed under conjugation.
    required = {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    assert sum(c * hook_length_count(lam) for lam, c in required.items()) == (
        math.comb(6, 3) * 2 * 2
    )
    assert {conjugate(lam): c for lam, c in required.items()} == required

    start = time.perf_counter()
    results = {
        m: eg_coeffs(W321654, method=m)
        for m in ("tableaux", "pipedreams", "mls_leaves", "monomial")
    }
    elapsed = time.perf_counter() - start
    ok = all(r == required for r in results.values())
    report(3, ok, elapsed, 1.0)
    assert elapsed < 1.0
    for m, r in results.items():
        assert r == required, f"{m}: {r}"


def test_criterion_4_expansion_consistency():
    # Four routes to the expansion agree, and the expansion resums to
    # the truncated symmetric function, for all of S4 and 50 random
    # elements of S5; under 120 s total.
    rng = random.Random(97)
    sample = list(all_permutations(4)) + rng.sample(list(all_permutations(5)), 50)
    start = time.perf_counter()
    ok = True
    for w in sample:
        coeffs = eg_coeffs(w, method="tableaux")
        for m in ("pipedreams", "mls_leaves", "monomial"):
            ok = ok and eg_coeffs(w, method=m) == coeffs
        m_vars = max(length(w), 1)
        total = SparsePoly.zero()
        for lam, c in coeffs.items():
            total = total + SparsePoly.constant(c) * schur_poly_by_tableaux(lam, m_vars)
        ok = ok and total == stanley_truncated(w, m_vars)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(4, ok, elapsed, 120.0)
    assert ok, f"mismatch at {w}"
    assert elapsed < 120.0


def test_criterion_5_schubert_routes():
    # Single and double forms from three independent routes, for all of
    # S4 and 20 random elements of S5; under 120 s total.
    rng = random.Random(59)
    sample = list(all_permutations(4)) + rng.sample(list(all_permutations(5)), 20)
    start = time.perf_counter()
    ok = True
    for w in sample:
        single = schubert_bjs(w)
        double = double_schubert(w)
        total = SparsePoly.zero()
        for p in enumerate_all(w):
            total = total + weight(p)
        ok = ok and single == schubert_by_staircase(w, staircase(len(w)))
        ok = ok and total == double
        ok = ok and total.substitute_y_zero() == single
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(5, ok, elapsed, 120.0)
    assert ok, f"mismatch at {w}"
    assert elapsed < 120.0


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


def test_criterion_6_transition_trees():
    # Pinned tree structures for 231654; under 1 s total.
    start = time.perf_counter()
    mls = mls_tree(W231654)
    ls = ls_tree(W231654)
    eg = eg_tree(W231654)
    elapsed = time.perf_counter() - start

    mls_rows = [(n.id, n.parent, n.perm, n.move) for n in mls.nodes]
    mls_leaves = {n.perm for n in mls.leaves()}
    want_mls_leaves = {
        (4, 3, 1, 2, 5, 6),
        (4, 2, 3, 1, 5, 6),
        (3, 4, 2, 1, 5, 6),
        (3, 2, 4, 5, 1, 6),
    }
    ls_leaves = {n.perm for n in ls.leaves()}
    want_ls_leaves = {
        (3, 5, 1, 2, 4, 6),
        (2, 3, 4, 6, 1, 5, 7),
        (2, 3, 6, 1, 4, 5, 7),
        (2, 4, 5, 1, 3, 6, 7),
    }
    eg_rows = [(n.id, n.parent, n.perm, n.move) for n in eg.nodes]
    eg_shapes = [is_eg(n.pipedream) for n in eg.leaves()]

    ok = (
        mls_rows == MLS_231654
        and mls_leaves == want_mls_leaves
        and ls_leaves == want_ls_leaves
        and eg_rows == mls_rows
        and len(eg_shapes) == 4
        and all(s is not None for s in eg_shapes)
    )
    report(6, ok, elapsed, 1.0)
    assert mls_rows == MLS_231654
    assert mls_leaves == want_mls_leaves
    assert ls_leaves == want_ls_leaves
    assert eg_rows == mls_rows
    assert [s for s in eg_shapes] == [code_partition(n.perm) for n in eg.leaves()]
    assert elapsed < 1.0


def test_criterion_7_bijection_round_trip():
    # Shape-preserving bijection between reduced word tableaux and
    # EG-pipedreams, both compositions the identity, for all of S5 plus
    # 231654 and 321654; the worked six-letter pair is byte-exact;
    # under 300 s total.
    perms = list(all_permutations(5)) + [W231654, W321654]
    start = time.perf_counter()
    ok = True
    for w in perms:
        tabs = enumerate_reduced_word_tableaux(w)
        egs = {p for p in enumerate_all(w) if is_eg(p) is not None}
        images = [gamma(t, w) for t in tabs]
        ok = ok and len(set(images)) == len(tabs) and set(images) == egs
        for t, p in zip(tabs, images):
            ok = ok and shape(t) == is_eg(p) and gamma_inverse(p) == t
        for p in egs:
            ok = ok and gamma(gamma_inverse(p), evaluate(word_of_pipedream(p))) == p
        if not ok:
            break
    worked = gamma(WORKED_TABLEAU, W231654)
    byte_exact = (
        render(worked) == WORKED_GRID
        and gamma_inverse(parse(WORKED_GRID)) == WORKED_TABLEAU
    )
    elapsed = time.perf_counter() - start
    report(7, ok and byte_exact, elapsed, 300.0)
    assert ok, f"round trip failed at {w}"
    assert byte_exact
    assert elapsed < 300.0


def test_criterion_8_theorem_properties():
    # Explicit property suites, independent of the internal assertions:
    #   - along every steering chain of criterion 7, the recording
    #     tableau of the reversed word is unchanged and the column word
    #     of its insertion tableau recovers the current word;
    #   - expansion boxes shrink strictly down every tree edge;
    #   - the slot set at every expansion recovers exactly the parent;
    #   - undrooping every EG-pipedream of every element of S5 reaches
    #     the droop-free pipedream.
    perms = list(all_permutations(5)) + [W231654, W321654]
    start = time.perf_counter()

    for w in perms:
        tree = eg_tree(w)
        for t in enumerate_reduced_word_tableaux(w):
            tau = word(column_reading_word(t), len(w))
            q0 = eg_insert(reverse(tau).letters)[1]
            node = tree.root
            while node.children:
                u = node.perm
                p, q = max_pivot_box(u)
                tau = little_map(tau, p, u[q - 1])
                pt, qt = eg_insert(reverse(tau).letters)
                assert qt == q0, (w, t)
                assert column_reading_word(pt) == tau.letters, (w, t)
                target = evaluate(tau)
                node = next(
                    tree.nodes[c]
                    for c in node.children
                    if tree.nodes[c].perm == target
                )

    def box_at(u):
        p, q = max_pivot_box(u)
        return (p, u[q - 1])

    for w in perms:
        tree = mls_tree(w)
        for node in tree.nodes:
            if is_dominant(node.perm):
                continue
            if node.parent is not None:
                assert box_at(node.perm) < box_at(tree.nodes[node.parent].perm)
            u = node.perm
            p, q = max_pivot_box(u)
            v = apply_transposition(u, p, q)
            phi = {apply_transposition(v, i, p) for i in up_pivots(v, p)}
            psi = {apply_transposition(v, p, j) for j in up_slots(v, p)}
            assert psi == {u}, (w, u)
            assert {tree.nodes[c].perm for c in node.children} == phi, (w, u)

    for w in all_permutations(5):
        base = rothe(w)
        for p in enumerate_all(w):
            if is_eg(p) is None:
                continue
            cur = p
            while cur.nw_elbows():
                cur = reverse_droop(cur, cur.nw_elbows()[0])
            assert cur == base, (w, p)

    elapsed = time.perf_counter() - start
    report(8, True, elapsed)
