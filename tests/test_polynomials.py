import gc
import random
import re
import signal
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    compatible_sum,
    complement,
    conjugate,
    count_reduced_words,
    double_schubert_by_tuples,
    double_staircase,
    grassmannian_shape,
    hook_length_count,
    is_vexillary,
    macdonald_sum,
    schubert_by_staircase,
    schur_candidates_by_scan,
    schur_expand_by_peel,
    schur_poly_by_tableaux,
    staircase,
    times_root_by_tuples,
)
from stanley.permutations import (
    all_permutations,
    code_partition,
    embed_left,
    inverse,
    is_grassmannian,
    length,
    longest_element,
    reduced_words,
)
import stanley.polynomials as polynomials
from stanley.pipedreams import BumplessPipedream, enumerate_all
from stanley.polynomials import (
    SparsePoly,
    _PackedRoots,
    divided_difference,
    double_schubert,
    eg_coeffs,
    schubert_bjs,
    schur_expand,
    schur_poly,
    stanley_truncated,
    weight,
    weights_sum_to_double_schubert,
)

x = SparsePoly.x
y = SparsePoly.y

polys = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=3), max_size=4),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=6,
).map(lambda ts: SparsePoly({(tuple(xe), ()): c for xe, c in ts}))


def test_arithmetic_basics():
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1, 2) - x(2, 2)
    assert x(1) - x(1) == SparsePoly.zero()
    assert not SparsePoly.zero()
    assert 3 * x(2) * y(1) == SparsePoly.monomial((0, 1), (1,), 3)
    assert SparsePoly.constant(5).degree() == 0
    assert SparsePoly.zero().degree() == -1
    assert SparsePoly.sum([]) == SparsePoly.zero()


def test_variables_need_a_positive_index():
    for variable in (SparsePoly.x, SparsePoly.y):
        for i in (0, -2):
            with pytest.raises(ValueError, match="must be positive"):
                variable(i)


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly.monomial((1, -1))
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly.monomial((), (0, -2))
    with pytest.raises(ValueError, match="negative exponent"):
        x(1, -1)
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly({((1,), (-1,)): 1})


def test_constructor_adds_keys_that_trim_alike():
    assert SparsePoly({((1, 0), ()): 1, ((1,), ()): 2}) == 3 * x(1)
    assert SparsePoly({((1, 0), ()): 2, ((1,), ()): -2}) == SparsePoly.zero()


exponents = st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(tuple)
two_alphabet_polys = st.dictionaries(
    st.tuples(exponents, exponents), st.integers(min_value=-3, max_value=3), max_size=6
).map(SparsePoly)


@given(two_alphabet_polys, two_alphabet_polys, st.integers(min_value=-3, max_value=3))
def test_arithmetic_keeps_keys_trimmed_and_coefficients_nonzero(f, g, k):
    assert SparsePoly.sum((f, g, -f)) == f + g - f
    sums = (f + g, f - g, SparsePoly.sum((f, g, -f)))
    for r in (*sums, f * g, -f, f * k, k * f, f.substitute_y_zero()):
        for (xe, ye), c in r.terms.items():
            assert c != 0
            assert xe[-1:] != (0,) and ye[-1:] != (0,)
        assert r == SparsePoly(dict(r.terms))


def pack(roots, f):
    """f in the packed form of roots: each exponent in its field, the total
    degree in the top one."""
    out = {}
    for (xe, ye), c in f.terms.items():
        fields = (*xe, *(0,) * (roots.n - len(xe)), *ye)
        key = sum(e << roots.bits * v for v, e in enumerate(fields))
        out[key + (sum(xe) + sum(ye) << roots.degree_shift)] = c
    return out


@given(
    two_alphabet_polys,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
# (x1 + y2)(x1 - y2): the two x1*y2 terms cancel.
@example(x(1) + y(2), 1, 2)
def test_root_factor_kernel_matches_the_general_product(f, i, j):
    n = max(i, j, *(len(e) for key in f.terms for e in key))
    roots = _PackedRoots(n, f.degree() + 1)
    g = roots.times_root(pack(roots, f), i, j)
    assert roots.unpack(g) == f * (x(i) - y(j)) == times_root_by_tuples(f, i, j)
    assert roots.sum([g]) == pack(roots, f * (x(i) - y(j)))


def test_root_factor_kernel_needs_positive_indices():
    roots = _PackedRoots(3, 2)
    for i, j in ((0, 1), (1, 0), (4, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError, match="outside x1..x3, y1..y3"):
            roots.times_root({0: 1}, i, j)
    assert roots.unpack(roots.product([(3, 3), (1, 1)])) == (x(3) - y(3)) * (x(1) - y(1))


def test_root_factor_kernel_refuses_a_factor_past_its_bound():
    # Three bits hold degree 7: an eighth factor of x3 would carry into y1.
    roots = _PackedRoots(3, 7)
    assert roots.bits == 3
    full = roots.product([(3, 1)] * 7)
    assert roots.unpack(full) == SparsePoly.sum(
        x(3, k) * y(1, 7 - k) * (-1) ** (7 - k) * comb(7, k) for k in range(8)
    )
    with pytest.raises(ValueError, match="past the degree bound 7"):
        roots.times_root(full, 3, 1)
    # One term at the bound is enough, whatever the others hold.
    with pytest.raises(ValueError, match="past the degree bound 7"):
        roots.times_root({0: 1, **pack(roots, x(3, 7))}, 1, 1)
    with pytest.raises(ValueError, match="past the degree bound 0"):
        _PackedRoots(2, 0).times_root({0: 1}, 1, 1)


def test_packed_transition_and_weights_match_the_tuple_oracle():
    # str is a function of the terms; it is compared where it is cheap to
    # print, through S5.
    memo = {}
    for w in (w for n in range(1, 7) for w in all_permutations(n)):
        expected = double_schubert_by_tuples(w, memo)
        got = double_schubert(w)
        assert got == expected and (len(w) == 6 or str(got) == str(expected)), w
        dreams = enumerate_all(w)
        if len(w) < 6:
            total = SparsePoly.sum(map(weight, dreams))
            assert total == expected and str(total) == str(expected), w
        # The check verify makes, and the packed weight sum it compares
        # against the tuple oracle.
        assert weights_sum_to_double_schubert(w, dreams), w
        roots = _PackedRoots(len(w) - 1, length(w))
        packed = roots.sum(roots.product(p.empty_boxes()) for p in dreams)
        assert packed == pack(roots, expected), w
        assert roots.y_free(packed) == schubert_bjs(w), w


@pytest.mark.parametrize("w", [(1, 3, 2), (2, 3, 1, 6, 5, 4)])
def test_weight_sum_check_fails_on_a_wrong_list(w, monkeypatch):
    dreams = enumerate_all(w)
    assert len(dreams) >= 2
    assert weights_sum_to_double_schubert(w, dreams)
    assert not weights_sum_to_double_schubert(w, dreams[:-1])
    assert not weights_sum_to_double_schubert(w, dreams + dreams[:1])
    # The y-free comparison alone can fail the check too.
    monkeypatch.setattr("stanley.polynomials.schubert_bjs", lambda w: SparsePoly.zero())
    assert not weights_sum_to_double_schubert(w, dreams)


def unpack_box_lists(lists, n, bits):
    """The packed box lists of polynomials._box_lists for an element of
    S_n, as a Counter of box tuples in row-major order."""
    fields, mask = (n - 1) ** 2, (1 << bits) - 1
    out = Counter()
    for key, c in lists.items():
        assert key >= 0 and key >> fields * bits == 0, key
        boxes = []
        for index in range(fields):
            boxes += [divmod(index, n - 1)] * (key >> index * bits & mask)
        out[tuple((i + 1, j + 1) for i, j in boxes)] += c
    return out


_rng = random.Random(131)
BOX_LIST_SAMPLE = [
    *(tuple(_rng.sample(range(1, 8), 7)) for _ in range(200)),
    *(tuple(_rng.sample(range(1, 9), 8)) for _ in range(40)),
    (8, 5, 2, 7, 4, 6, 3, 1),
]


@pytest.fixture(scope="module")
def dreams_of_s1_to_s6():
    return [(w, enumerate_all(w)) for n in range(1, 7) for w in all_permutations(n)]


def test_transition_box_lists_are_the_empty_box_lists(dreams_of_s1_to_s6):
    # The multiset behind weights_sum_to_double_schubert, unpacked: the
    # transition's box lists are the bumpless pipedreams' empty boxes.
    sample = [(w, enumerate_all(w)) for w in BOX_LIST_SAMPLE]
    for w, dreams in dreams_of_s1_to_s6 + sample:
        bits = max(length(w).bit_length(), 1)
        lists = polynomials._box_lists(w, max(len(w) - 1, 0), bits, {})
        expected = Counter(tuple(p.empty_boxes()) for p in dreams)
        assert unpack_box_lists(lists, len(w), bits) == expected, w


def test_weight_sum_check_expands_nothing_on_s1_to_s6(dreams_of_s1_to_s6, monkeypatch):
    def expanded(*args):
        raise AssertionError("the weight sum check expanded the transition")

    monkeypatch.setattr(polynomials, "_double_schubert", expanded)
    for w, dreams in dreams_of_s1_to_s6:
        assert weights_sum_to_double_schubert(w, dreams), w


@pytest.mark.parametrize(
    "w, rows, message",
    [
        # A box in the last column or row, past x(n-1) and y(n-1).
        ((1, 3, 2), ("r-.", "|r-", "||r"), "root x1 - y3 outside x1..x2, y1..y2"),
        ((1, 3, 2), ("r--", "|r-", "||."), "root x3 - y3 outside x1..x2, y1..y2"),
        ((2, 1), ("..", "r-"), "root x1 - y2 outside x1..x1, y1..y1"),
        ((1,), (".",), "root x1 - y1 outside x1..x0, y1..y0"),
        # More empty boxes than length(w).
        ((1, 3, 2), ("..r", "r+-", "||r"), "a root factor past the degree bound 1"),
        ((2, 1, 3), ("...r", "r+--", "||r-", "|||r"), "a root factor past the degree bound 1"),
    ],
)
def test_weight_sum_check_refuses_boxes_the_expansion_refuses(w, rows, message):
    bad = BumplessPipedream(len(rows), rows)
    for dreams in ([bad], [*enumerate_all(w), bad], [bad, *enumerate_all(w)]):
        with pytest.raises(ValueError) as caught:
            weights_sum_to_double_schubert(w, dreams)
        assert type(caught.value) is ValueError and str(caught.value) == message


def test_display():
    assert str(SparsePoly.zero()) == "0"
    assert str(schubert_bjs((3, 2, 1))) == "x1^2*x2"
    assert str(double_schubert((2, 1, 3))) == "x1 - y1"
    assert str(stanley_truncated((2, 1), 3)) == "x1 + x2 + x3"
    assert str(SparsePoly.constant(-2) + x(1, 2) * 3) == "3*x1^2 - 2"


def test_stanley_truncated_basics():
    assert stanley_truncated((1, 2, 3, 4), 2) == SparsePoly.constant(1)
    assert stanley_truncated((1,)) == SparsePoly.constant(1)
    assert stanley_truncated((2, 1), 3) == x(1) + x(2) + x(3)
    with pytest.raises(ValueError, match="at least one variable"):
        stanley_truncated((2, 1), 0)


@pytest.mark.parametrize("w", [(3, 1, 4, 2), (2, 4, 1, 3), (4, 3, 2, 1)])
def test_stanley_truncated_is_symmetric_and_homogeneous(w):
    m = length(w)
    f = stanley_truncated(w, m)
    assert f.is_symmetric_x(m)
    assert all(
        sum(xe) == length(w) and not ye for xe, ye in f.terms
    )


def test_stanley_truncated_matches_schur_for_vexillary():
    # A vexillary permutation's Stanley function is a single Schur
    # polynomial at the sorted Lehmer code, here (3, 2, 2).
    assert stanley_truncated((3, 5, 4, 1, 2), 4) == schur_poly_by_tableaux((3, 2, 2), 4)


def test_schubert_bjs_small():
    assert schubert_bjs((1, 2)) == SparsePoly.constant(1)
    assert schubert_bjs((2, 1)) == x(1)
    assert schubert_bjs((1, 3, 2)) == x(1) + x(2)
    assert schubert_bjs((3, 2, 1)) == x(1, 2) * x(2)


def test_schubert_bjs_dominant_is_a_monomial():
    # Dominant permutations: the single monomial with the Lehmer code.
    assert schubert_bjs((4, 2, 3, 1, 5, 6)) == SparsePoly.monomial((3, 1, 1))
    assert schubert_bjs((3, 4, 2, 1)) == SparsePoly.monomial((2, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schubert_bjs_matches_divided_differences(n):
    for w in all_permutations(n):
        assert schubert_bjs(w) == schubert_by_staircase(w, staircase(n))


def test_divided_difference_basics():
    assert divided_difference(x(1), 1) == SparsePoly.constant(1)
    assert divided_difference(x(1) * x(2), 1) == SparsePoly.zero()
    assert divided_difference(x(1, 2), 1) == x(1) + x(2)
    assert divided_difference(SparsePoly.constant(7), 2) == SparsePoly.zero()


@given(polys, st.integers(min_value=1, max_value=3))
def test_divided_difference_squares_to_zero(f, i):
    assert divided_difference(divided_difference(f, i), i) == SparsePoly.zero()


@settings(deadline=None)
@given(polys)
def test_divided_difference_braid_relation(f):
    d1 = lambda g: divided_difference(g, 1)
    d2 = lambda g: divided_difference(g, 2)
    assert d1(d2(d1(f))) == d2(d1(d2(f)))


def test_double_schubert_longest_element():
    expected = (x(1) - y(1)) * (x(1) - y(2)) * (x(2) - y(1))
    assert double_schubert((3, 2, 1)) == expected
    assert double_schubert((1, 2, 3)) == SparsePoly.constant(1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_double_schubert_specializes_to_bjs(n):
    for w in all_permutations(n):
        assert double_schubert(w).substitute_y_zero() == schubert_bjs(w)


def test_double_schubert_matches_the_double_staircase():
    # The transition recursion against divided differences from the top of
    # S_n: all of S1-S5 and ten seeded elements of S6 (about 0.2 s each).
    sample = [w for n in range(1, 6) for w in all_permutations(n)]
    sample += random.Random(6).sample(list(all_permutations(6)), 10)
    tops = {}
    for w in sample:
        top = tops.setdefault(len(w), double_staircase(len(w)))
        assert double_schubert(w) == schubert_by_staircase(w, top), w


def test_double_schubert_is_stable_under_embedding():
    # S_w does not depend on the symmetric group w is read in.
    for n in range(1, 6):
        for w in all_permutations(n):
            assert double_schubert(w + (n + 1,)) == double_schubert(w), w


def test_double_schubert_path_independence():
    # Descend from w_0 along last ascents instead of first ones; the
    # divided-difference recursion must not care.
    from stanley.permutations import multiply_simple

    for w in all_permutations(4):
        chain = []
        v = w
        while v != longest_element(4):
            i = max(i for i in range(1, 4) if v[i - 1] < v[i])
            chain.append(i)
            v = multiply_simple(v, i)
        f = double_schubert(longest_element(4))
        for i in reversed(chain):
            f = divided_difference(f, i)
        assert f == double_schubert(w)


def test_schur_poly_small():
    assert schur_poly((1,), 2) == x(1) + x(2)
    assert schur_poly((2, 1), 2) == x(1, 2) * x(2) + x(1) * x(2, 2)
    assert schur_poly((1, 1, 1), 2) == SparsePoly.zero()
    assert schur_poly((), 3) == SparsePoly.constant(1)
    assert schur_poly((), 0) == SparsePoly.constant(1)
    assert schur_poly((1,), 0) == SparsePoly.zero()
    with pytest.raises(ValueError, match="not a partition"):
        schur_poly((1, 2), 3)


def test_schur_poly_symmetric():
    assert schur_poly((3, 1), 4).is_symmetric_x(4)


def test_schur_poly_is_the_tableau_sum():
    # Every partition of size at most 7: weakly decreasing tuples drawn
    # from a descending range.
    shapes = [
        lam
        for rows in range(8)
        for lam in combinations_with_replacement(range(7, 0, -1), rows)
        if sum(lam) <= 7
    ]
    assert len(shapes) == 45
    for lam in shapes:
        for m in range(9):
            assert schur_poly(lam, m) == schur_poly_by_tableaux(lam, m), (lam, m)
    assert schur_poly((), 0) == schur_poly_by_tableaux((), 0)
    with pytest.raises(ValueError, match=re.escape("not a partition: (2, 0)")):
        schur_poly((2, 0), 3)


def test_negative_variable_counts_raise():
    # Checked before the input: a partition, symmetry or window fault
    # still reads as the negative count.
    for m in (-1, -2):
        for lam in ((), (1,), (1, 2)):
            with pytest.raises(ValueError, match=f"negative number of variables: m={m}"):
                schur_poly(lam, m)
        for f in (SparsePoly.zero(), SparsePoly.constant(1), x(1), y(1)):
            with pytest.raises(ValueError, match=f"negative number of variables: m={m}"):
                schur_expand(f, m)


def test_schur_poly_leaves_no_cycles():
    gc.disable()
    try:
        gc.collect()
        schur_poly.__wrapped__((3, 2, 1), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("w", [(), (1,)])
def test_every_route_expands_the_identity_of_s0_and_s1(w):
    for method in ("tableaux", "pipedreams", "mls_leaves", "monomial"):
        assert eg_coeffs(w, method) == {(): 1}, method
    for m in (None, 1, 2):
        assert stanley_truncated(w, m) == SparsePoly.constant(1), m


def orbit_sum(f, m):
    """The sum of the distinct polynomials reached from f by swapping
    x_i and x_{i+1}, i < m: symmetric in x_1..x_m."""
    orbit, todo = {f}, [f]
    while todo:
        g = todo.pop()
        for i in range(1, m):
            if (h := g.swap_x(i)) not in orbit:
                orbit.add(h)
                todo.append(h)
    return SparsePoly.sum(orbit)


@given(two_alphabet_polys, two_alphabet_polys, st.integers(min_value=1, max_value=4))
def test_is_symmetric_x_matches_the_swaps(f, g, m):
    for h in (f, orbit_sum(f, m), orbit_sum(f, m) + g):
        assert h.is_symmetric_x(m) == all(h.swap_x(i) == h for i in range(1, m))


def test_schur_expand_round_trip():
    assert schur_expand(schur_poly((2, 1), 3), 3) == {(2, 1): 1}
    f = 2 * schur_poly((2, 2), 4) + schur_poly((3, 1), 4)
    assert schur_expand(f, 4) == {(3, 1): 1, (2, 2): 2}
    assert schur_expand(SparsePoly.constant(3), 0) == {(): 3}
    assert schur_expand(SparsePoly.zero(), 0) == {}


def test_schur_candidates_match_the_scan_of_every_tuple(monkeypatch):
    # The candidates schur_expand lists on the truncation of each w in
    # S1-S6 that the monomial route expands are those of the scan, in the
    # same order.
    calls = []
    candidates = polynomials._schur_candidates
    monkeypatch.setattr(
        polynomials,
        "_schur_candidates",
        lambda *args: calls.append(args) or candidates(*args),
    )
    for n in range(1, 7):
        for w in all_permutations(n):
            eg_coeffs(w, "monomial")
    assert len(calls) == 873
    listed = 0
    for degrees, m, top in calls:
        expected = schur_candidates_by_scan(degrees, m, top)
        assert candidates(degrees, m, top) == expected, (degrees, m, top)
        listed += len(expected)
    assert listed == 4223


def test_schur_expand_leaves_no_cycles():
    # Everything schur_expand builds is freed by reference counting when
    # it returns, without waiting for the cycle collector.
    f = stanley_truncated(longest_element(6), 5)
    gc.disable()
    try:
        gc.collect()
        schur_expand(f, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_schur_expand_rejects_bad_input():
    with pytest.raises(ValueError, match="not symmetric"):
        schur_expand(x(1), 2)
    with pytest.raises(ValueError, match="y variables"):
        schur_expand(y(1), 2)
    with pytest.raises(ValueError, match="negative leftover"):
        schur_expand(schur_poly((1, 1), 2) - schur_poly((2,), 2), 2)
    with pytest.raises(ValueError, match="past x0"):
        schur_expand(x(1), 0)


def test_schur_expand_rejects_variables_past_the_window():
    # Without the window check x1*x2*x3 peels forever: s_111 vanishes in
    # two variables, so the leading term never leaves.
    def timeout(signum, frame):
        raise TimeoutError("schur_expand did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for f in (x(1) * x(2) * x(3), x(3)):
            with pytest.raises(ValueError, match="past x2"):
                schur_expand(f, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_alternant_matches_the_peel_through_s6():
    # The items and their order: both visit shapes lexicographically
    # descending.
    for n in range(1, 7):
        for w in all_permutations(n):
            m = max(len(code_partition(w)), 1)
            f = stanley_truncated(w, m)
            assert list(schur_expand(f, m).items()) == list(
                schur_expand_by_peel(f, m).items()
            ), w


partitions = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def outcome(expand, f, m):
    try:
        return list(expand(f, m).items())
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(partitions, st.integers(min_value=-2, max_value=2)), max_size=4),
)
def test_alternant_matches_the_peel_on_signed_sums(m, combination):
    # Signed and possibly inhomogeneous: the same expansion or the same
    # first negative coefficient.
    f = SparsePoly.sum(c * schur_poly(lam, m) for lam, c in combination)
    assert outcome(schur_expand, f, m) == outcome(schur_expand_by_peel, f, m)


def test_alternant_finds_a_shape_missing_from_the_support():
    # s_2 - s_11 = x1^2 + x2^2 has no x1*x2 term, yet its s_11
    # coefficient is -1.
    f = schur_poly((2,), 2) - schur_poly((1, 1), 2)
    assert f == x(1, 2) + x(2, 2)
    with pytest.raises(ValueError, match=re.escape("negative leftover -1 at (1, 1)")):
        schur_expand(f, 2)


def test_monomial_route_of_a_vexillary_s8_element():
    # The peel took seconds here for an answer that is one Schur function.
    assert eg_coeffs((8, 4, 7, 6, 2, 5, 1, 3), "monomial") == {(7, 5, 4, 3, 2, 1): 1}


def test_eg_coeffs_known_expansions():
    expected = {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}
    assert eg_coeffs((2, 3, 1, 6, 5, 4), "tableaux") == expected
    assert eg_coeffs((2, 3, 1, 6, 5, 4), "monomial") == expected


def test_eg_coeffs_direct_sum_of_two_321():
    # F factors as s_21 squared, so the coefficients follow the
    # Littlewood-Richardson rule.
    expected = {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    assert eg_coeffs((3, 2, 1, 6, 5, 4), "tableaux") == expected
    assert eg_coeffs((3, 2, 1, 6, 5, 4), "monomial") == expected


def test_eg_coeffs_dominant_and_identity():
    assert eg_coeffs((3, 4, 2, 1), "monomial") == {(2, 2, 1): 1}
    assert eg_coeffs((3, 4, 2, 1), "tableaux") == {(2, 2, 1): 1}
    assert eg_coeffs((1, 2, 3), "tableaux") == {(): 1}
    with pytest.raises(ValueError, match="unknown method"):
        eg_coeffs((2, 1), "guess")


@pytest.mark.parametrize("w", [(1, 1), (2, 3), (3,)])
def test_every_route_refuses_a_window_that_is_not_a_permutation(w):
    # Unchecked, the routes disagreed on (1, 1) ({}, {(): 1} and {(1,): 1})
    # and the tableaux route raised IndexError on (2, 3) and (3,).
    for method in ("tableaux", "pipedreams", "mls_leaves", "monomial"):
        with pytest.raises(ValueError, match=re.escape(f"not a permutation of 1..{len(w)}: {w}")):
            eg_coeffs(w, method)


def test_every_route_sorts_its_coefficients_by_shape():
    # Equal dicts may still list their keys in different orders; every
    # route lists them in the same order, sorted by shape.
    perms = [w for n in range(1, 6) for w in all_permutations(n)]
    for w in perms + [(2, 3, 1, 6, 5, 4), (3, 2, 1, 6, 5, 4), (7, 4, 2, 1, 8, 3, 6, 5)]:
        keys = list(eg_coeffs(w))
        assert keys == sorted(keys), w
        for method in ("tableaux", "mls_leaves", "monomial"):
            assert list(eg_coeffs(w, method)) == keys, (w, method)


WINDOW_PERMS = (
    [w for n in range(1, 6) for w in all_permutations(n)]
    + [w for w in all_permutations(6) if length(w) <= 10]
    + [(4, 3, 6, 5, 2, 1), (5, 4, 3, 2, 1, 7, 6)]
)


def test_monomial_route_peels_in_the_code_partition_window():
    # The monomial route truncates F_w to len(code_partition(w)) variables.
    # Every shape dominates the code partition, which itself occurs once, so
    # that window is the smallest one that loses no shape.
    for w in WINDOW_PERMS:
        coeffs = eg_coeffs(w)
        lam = code_partition(w)
        assert eg_coeffs(w, "monomial") == coeffs, w
        assert coeffs[lam] == 1, w
        assert all(len(mu) <= len(lam) for mu in coeffs), w


@pytest.mark.parametrize("w", [(2, 1, 4, 3), (4, 3, 2, 1), (2, 4, 1, 3)])
def test_stable_limit_of_schubert(w):
    # Embedding under more and more leading fixed points, the Schubert
    # polynomial's x1..x3 part stabilizes to the truncated Stanley function.
    l = length(w)
    f = stanley_truncated(w, 3)

    def restriction(m):
        v = w
        for _ in range(m):
            v = embed_left(v)
        g = schubert_bjs(v)
        return SparsePoly(
            {
                (xe, ()): c
                for (xe, ye), c in g.terms.items()
                if len(xe) <= 3
            }
        )

    assert restriction(l) == f
    assert restriction(l + 1) == f


def compatible_sum_by_definition(w, caps):
    # The Billey-Jockusch-Stanley definition: x_{b_1}...x_{b_l} summed over
    # reduced words a of w and every weakly increasing b with b_i <= caps(a)[i]
    # and b_i < b_{i+1} wherever a_i < a_{i+1}.
    terms = Counter()
    for a in reduced_words(w):
        cap = caps(a)
        letters = range(1, max(cap, default=0) + 1)
        for b in combinations_with_replacement(letters, len(a)):
            if all(bi <= ci for bi, ci in zip(b, cap)) and all(
                b[i] < b[i + 1] for i in range(len(a) - 1) if a[i] < a[i + 1]
            ):
                expo = tuple(b.count(k) for k in range(1, max(b, default=0) + 1))
                terms[(expo, ())] += 1
    return SparsePoly(terms)


ORACLE_PERMS = [w for n in range(1, 6) for w in all_permutations(n)] + [
    w for w in all_permutations(6) if length(w) <= 5
]


def test_schubert_bjs_matches_the_compatible_sequence_definition():
    for w in ORACLE_PERMS:
        assert schubert_bjs(w) == compatible_sum_by_definition(w, lambda a: a), w


def test_stanley_truncated_matches_the_compatible_sequence_definition():
    for w in ORACLE_PERMS:
        for m in (1, 2, 3):
            expected = compatible_sum_by_definition(w, lambda a: (m,) * len(a))
            assert stanley_truncated(w, m) == expected, (w, m)
        if length(w) <= 6:
            m = max(length(w), 1)
            expected = compatible_sum_by_definition(w, lambda a: (m,) * len(a))
            assert stanley_truncated(w) == expected, w


_word_counts = {}
FEW_WORD_PERMS = [
    w
    for n in range(1, 7)
    for w in all_permutations(n)
    if count_reduced_words(w, _word_counts) <= 2000
]


def test_factor_recursion_matches_the_grouped_compatible_sum():
    # The weak-order factor recursion against the compatible sum over every
    # reduced word, on each element of S1-S6 with at most 2,000 of them.
    assert len(FEW_WORD_PERMS) == 805
    for w in FEW_WORD_PERMS:
        assert schubert_bjs(w) == compatible_sum(w, lambda a: a), w
        m = max(len(code_partition(w)), 1)
        assert stanley_truncated(w, m) == compatible_sum(w, lambda a: (m,) * len(a)), w


def test_factor_recursion_matches_the_grouped_compatible_sum_in_length_variables():
    # The default window, m = length(w), on the same elements up to length
    # 7 (499 of them, about 3 s); length 8 alone takes the sum about 11 s.
    for w in FEW_WORD_PERMS:
        if length(w) <= 7:
            m = max(length(w), 1)
            assert stanley_truncated(w) == compatible_sum(w, lambda a: (m,) * len(a)), w


def test_macdonald_identity_without_enumeration():
    # Macdonald: the sum over reduced words of the product of their letters
    # is l(w)! S_w(1, ..., 1).  S_w(1, ..., 1) is the coefficient sum of the
    # Schubert polynomial, of the y-free part of the double one, and the
    # number of bumpless pipedreams.
    memo = {}
    perms = [w for n in range(1, 7) for w in all_permutations(n)]
    assert len(perms) == 873
    for w in perms:
        total = macdonald_sum(w, memo)
        scale = factorial(length(w))
        assert total == scale * sum(schubert_bjs(w).terms.values()), w
        if len(w) <= 5:
            y_free = sum(c for (_, ye), c in double_schubert(w).terms.items() if not ye)
            assert total == scale * y_free == scale * len(enumerate_all(w)), w


_s8_rng = random.Random(8)
S8_SAMPLE = [tuple(_s8_rng.sample(range(1, 9), 8)) for _ in range(10)]


@pytest.mark.parametrize("w", S8_SAMPLE)
def test_monomial_route_agrees_past_s7(w):
    assert eg_coeffs(w, "monomial") == eg_coeffs(w), w


_count_rng = random.Random(7)
COUNT_PERMS = [longest_element(7), longest_element(8)] + [
    tuple(_count_rng.sample(range(1, 9), 8)) for _ in range(20)
]


def test_stanley_count_past_s6():
    # Stanley: #R(w) = sum over lam of a_lam f^lam, with the reduced words
    # counted down the weak order and f^lam by the hook-length formula.
    memo = {}
    for w in COUNT_PERMS:
        assert count_reduced_words(w, memo) == sum(
            a * hook_length_count(lam) for lam, a in eg_coeffs(w).items()
        ), w


_rng = random.Random(1984)
IDENTITY_PERMS = (
    [w for n in range(1, 7) for w in all_permutations(n)]
    + [tuple(_rng.sample(range(1, 8), 7)) for _ in range(20)]
    + [tuple(_rng.sample(range(1, 9), 8)) for _ in range(20)]
)


def test_stanley_function_identities_without_reduced_words():
    # F_{w^-1} is F_w with every shape conjugated, and conjugating w by the
    # longest element gives F_{w0 w w0} = F_{w^-1} (not F_w: 2314 expands
    # as s_11 but 1423 as s_2).  Grassmannian w gives the one Schur function
    # of its shape, and w is vexillary iff F_w is the one at its code.
    for w in IDENTITY_PERMS:
        coeffs = eg_coeffs(w)
        inverse_coeffs = eg_coeffs(inverse(w))
        assert inverse_coeffs == {conjugate(lam): c for lam, c in coeffs.items()}, w
        assert eg_coeffs(complement(w)) == inverse_coeffs, w
        if is_grassmannian(w):
            assert coeffs == {grassmannian_shape(w): 1}, w
        assert is_vexillary(w) == (coeffs == {code_partition(w): 1}), w
