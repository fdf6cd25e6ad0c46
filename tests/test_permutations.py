import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    complement,
    contains_pattern,
    grassmannian_shape,
    is_dominant_by_code,
    is_vexillary,
)
from stanley.permutations import (
    all_permutations,
    apply_transposition,
    code_partition,
    descents,
    embed_left,
    format_permutation,
    identity,
    inverse,
    is_dominant,
    is_grassmannian,
    lehmer_code,
    length,
    longest_element,
    multiply_simple,
    parse_permutation,
    perm_from_code,
    reduced_words,
)

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


def sort_swap_count(w):
    # Independent length oracle: adjacent-swap count of bubble sort.
    w, count = list(w), 0
    for _ in range(len(w)):
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                count += 1
    return count


def brute_reduced_words(w):
    # Independent enumeration oracle: try every word of the right length.
    n, l = len(w), length(w)
    found = []
    for letters in itertools.product(range(1, n), repeat=l):
        window = list(range(1, n + 1))
        for t in letters:
            window[t - 1], window[t] = window[t], window[t - 1]
        if tuple(window) == w:
            found.append(letters)
    return found


@given(perms)
def test_length_matches_sorting_oracle(w):
    assert length(w) == sort_swap_count(w)


@given(perms)
def test_lehmer_code_sums_to_length(w):
    code = lehmer_code(w)
    assert len(code) == len(w)
    assert sum(code) == length(w)


@given(perms)
def test_code_round_trip(w):
    assert perm_from_code(lehmer_code(w)) == w


@pytest.mark.parametrize(
    "w, code",
    [
        ((3, 5, 4, 1, 2), (2, 3, 2, 0, 0)),
        ((4, 2, 3, 1, 5, 6), (3, 1, 1, 0, 0, 0)),
        ((2, 3, 1, 6, 5, 4), (1, 1, 0, 2, 1, 0)),
    ],
)
def test_lehmer_code_known_values(w, code):
    assert lehmer_code(w) == code


def test_code_partition_sorts_and_drops_zeros():
    assert code_partition((2, 3, 1, 6, 5, 4)) == (2, 1, 1, 1)
    assert code_partition(identity(4)) == ()


def test_perm_from_code_rejects_oversized_entries():
    with pytest.raises(ValueError, match="code entry"):
        perm_from_code((2, 0))


@given(perms)
def test_inverse_is_inverse(w):
    v = inverse(w)
    assert tuple(v[w[i] - 1] for i in range(len(w))) == identity(len(w))
    assert inverse(v) == w
    assert length(v) == length(w)


@given(perms)
def test_complement_is_an_involution_preserving_length(w):
    assert complement(complement(w)) == w
    assert length(complement(w)) == length(w)


def test_descents():
    assert descents((2, 3, 1, 6, 5, 4)) == [2, 4, 5]
    assert descents(identity(5)) == []
    assert descents(longest_element(4)) == [1, 2, 3]


def test_pattern_containment():
    assert contains_pattern((2, 4, 1, 3), (2, 4, 1, 3))
    assert contains_pattern((3, 6, 2, 5, 1, 4), (1, 3, 2))
    assert not contains_pattern((1, 2, 3), (2, 1))
    assert not contains_pattern((2, 1), (1, 3, 2))


def test_classify_known_permutations():
    assert is_dominant((3, 4, 2, 1))
    assert not is_dominant((1, 3, 2))
    assert not is_vexillary((2, 1, 4, 3))
    assert is_vexillary((1, 4, 3, 2))
    assert not is_dominant((1, 4, 3, 2))
    assert not is_vexillary((3, 6, 2, 5, 1, 4))
    w = (3, 5, 1, 2, 4, 6)
    assert is_grassmannian(w) and is_vexillary(w) and not is_dominant(w)


def test_dominant_is_132_avoiding():
    # Oracle for the Lehmer-code test: every element of S1-S8.
    for n in range(1, 9):
        for w in all_permutations(n):
            assert is_dominant(w) == (not contains_pattern(w, (1, 3, 2))), w


def test_is_dominant_matches_the_whole_code():
    # Stopping at the first rise of the code answers as the whole code
    # does, on every element of S1-S7.
    for n in range(1, 8):
        for w in all_permutations(n):
            assert is_dominant(w) == is_dominant_by_code(w), w


@given(perms)
def test_dominant_implies_vexillary_and_weakly_decreasing_code(w):
    if is_dominant(w):
        assert is_vexillary(w)
        code = lehmer_code(w)
        assert all(a >= b for a, b in zip(code, code[1:]))


def test_grassmannian_shape():
    assert grassmannian_shape((3, 5, 1, 2, 4, 6)) == (3, 2)
    assert grassmannian_shape((1, 2, 4, 3)) == (1,)
    assert grassmannian_shape(identity(3)) == ()
    with pytest.raises(ValueError, match="not Grassmannian"):
        grassmannian_shape((2, 1, 4, 3))


def test_apply_transposition():
    w = (6, 4, 5, 9, 7, 8, 3, 2, 1)
    assert apply_transposition(w, 4, 6) == (6, 4, 5, 8, 7, 9, 3, 2, 1)
    assert apply_transposition((1, 2, 3), 1, 3) == (3, 2, 1)
    with pytest.raises(ValueError, match="positions out of range"):
        apply_transposition((1, 2, 3), 2, 2)
    with pytest.raises(ValueError, match="positions out of range"):
        apply_transposition((1, 2, 3), 1, 4)


@given(perms, st.integers(min_value=1, max_value=6))
def test_multiply_simple_changes_length_by_one(w, i):
    if i >= len(w):
        return
    v = multiply_simple(w, i)
    assert abs(length(v) - length(w)) == 1
    assert (length(v) > length(w)) == (w[i - 1] < w[i])


@given(perms)
def test_embeddings_preserve_length(w):
    left = embed_left(w)
    assert len(left) == len(w) + 1
    assert length(left) == length(w)
    assert left[0] == 1


def test_embed_left_shifts_values():
    assert embed_left((2, 3, 5, 4, 1, 6)) == (1, 3, 4, 6, 5, 2, 7)


def test_reduced_words_small_cases():
    assert reduced_words(identity(3)) == [()]
    assert reduced_words((2, 1)) == [(1,)]
    assert reduced_words((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]


def test_reduced_words_against_brute_force():
    for w in [(4, 3, 2, 1), (2, 4, 3, 1), (2, 3, 1, 6, 5, 4)]:
        assert reduced_words(w) == sorted(brute_reduced_words(w))


def test_reduced_word_counts():
    assert len(reduced_words(longest_element(4))) == 16
    assert (5, 4, 1, 2, 5) in reduced_words((2, 3, 1, 6, 5, 4))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple))
def test_reduced_words_are_sorted_and_distinct(w):
    words = reduced_words(w)
    assert words == sorted(set(words))
    assert all(len(a) == length(w) for a in words)


def test_all_permutations_count():
    assert sum(1 for _ in all_permutations(4)) == 24


@given(perms)
def test_parse_format_round_trip(w):
    assert parse_permutation(format_permutation(w)) == w


def test_parse_permutation_forms():
    assert parse_permutation("231654") == (2, 3, 1, 6, 5, 4)
    assert parse_permutation("2,3,1,6,5,4") == (2, 3, 1, 6, 5, 4)
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(ValueError, match="not a permutation"):
        parse_permutation("1231")
