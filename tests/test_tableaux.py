import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    column_reading_word_by_transpose,
    count_reduced_words,
    frozen_tableau_by_code_partition,
    hook_length_count,
    is_dominant_by_code,
    is_increasing_by_index,
    transpose,
)
from stanley.permutations import (
    all_permutations,
    inverse,
    longest_element,
    reduced_words,
)
from stanley.polynomials import eg_coeffs
from stanley.tableaux import (
    _tableaux_of,
    column_reading_word,
    eg_insert,
    enumerate_reduced_word_tableaux,
    format_tableau,
    frozen_tableau,
    insertion_tableau,
    is_increasing,
    is_reduced_word_tableau,
    parse_tableau,
    row_reading_word,
    shape,
)


@st.composite
def reduced(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    words = reduced_words(w)
    return words[draw(st.integers(0, len(words) - 1))]


def is_standard(q):
    """Entries 1..size, strictly increasing along rows and down columns."""
    size = sum(len(row) for row in q)
    return is_increasing(q) and sorted(
        x for row in q for x in row
    ) == list(range(1, size + 1))


def tableaux_by_definition(w):
    # Insert every reduced word of the inverse, one word at a time.
    seen = {insertion_tableau(b) for b in reduced_words(inverse(w))}
    return sorted(seen, key=lambda t: (shape(t), row_reading_word(t)))


def test_eg_insert_seven_letter_word():
    p, q = eg_insert((2, 3, 1, 6, 4, 3, 2))
    assert p == ((1, 2, 4), (2, 3), (4,), (6,))
    assert q == ((1, 2, 4), (3, 5), (6,), (7,))


def test_eg_insert_prefixes():
    assert insertion_tableau((2, 3, 1)) == ((1, 3), (2,))
    assert insertion_tableau((2, 3, 1, 6, 4)) == ((1, 3, 4), (2, 6))
    assert insertion_tableau((2, 3, 1, 6, 4, 3)) == ((1, 3, 4), (2, 4), (6,))


def test_eg_insert_repeated_letter_keeps_row():
    assert eg_insert((2, 1, 2)) == (((1, 2), (2,)), ((1, 3), (2,)))


def test_eg_insert_empty_word():
    assert eg_insert(()) == ((), ())


def test_reading_words():
    t = ((1, 4, 5), (2,), (5,))
    assert row_reading_word(t) == (5, 2, 1, 4, 5)
    assert column_reading_word(t) == (5, 4, 1, 2, 5)
    assert row_reading_word(()) == ()
    assert column_reading_word(()) == ()


def test_column_reading_word_matches_the_transpose_reading():
    # Every reduced word tableau of S1-S6, from one shared memo.
    memo = {}
    tableaux = [
        t
        for n in range(1, 7)
        for w in all_permutations(n)
        for t in _tableaux_of(inverse(w), memo)
    ]
    assert len(tableaux) == 1 + 2 + 6 + 25 + 139 + 1007
    for t in tableaux:
        assert column_reading_word(t) == column_reading_word_by_transpose(t), t


def test_is_increasing_matches_the_index_comparison():
    # Every reduced word tableau of S1-S6, each also with one entry moved
    # by -1 or +1, then seeded grids of any row lengths, zero included.
    memo = {}
    grids = []
    rng = random.Random(5)
    for n in range(1, 7):
        for w in all_permutations(n):
            for t in _tableaux_of(inverse(w), memo):
                grids.append(t)
                rows = [list(row) for row in t]
                if rows:
                    row = rng.choice(rows)
                    row[rng.randrange(len(row))] += rng.choice((-1, 1))
                grids.append(tuple(map(tuple, rows)))
    for _ in range(3000):
        grids.append(
            tuple(
                tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(0, 4))
            )
        )
    for t in grids:
        assert is_increasing(t) == is_increasing_by_index(t), t
    # Both answers are common: 2,451 of the 5,360 grids are increasing.
    assert sum(map(is_increasing, grids)) == 2451


def test_row_word_of_insertion_stays_reduced_for_same_permutation():
    p = insertion_tableau((2, 3, 1, 6, 4, 3, 2))
    assert row_reading_word(p) == (6, 4, 2, 3, 1, 2, 4)


@settings(deadline=None)
@given(reduced())
def test_insert_and_reinsert_row_word(a):
    # The row reading word of P(a) inserts back to P(a).
    p = insertion_tableau(a)
    assert is_increasing(p)
    assert insertion_tableau(row_reading_word(p)) == p


@settings(deadline=None)
@given(reduced())
def test_reversal_transposes(a):
    assert insertion_tableau(a[::-1]) == transpose(insertion_tableau(a))


@settings(deadline=None)
@given(reduced())
def test_recording_tableau_is_standard(a):
    p, q = eg_insert(a)
    assert is_standard(q)
    assert shape(p) == shape(q)


@pytest.mark.parametrize("w", [(4, 3, 2, 1), (2, 3, 1, 6, 5, 4), (2, 4, 3, 1)])
def test_insertion_is_injective(w):
    words = reduced_words(w)
    assert len({eg_insert(a) for a in words}) == len(words)


def test_reduced_word_count_splits_by_shape():
    # |Red(w)| is the number of (P, Q) pairs: standard tableaux counted
    # per insertion-tableau shape.
    w = (2, 3, 1, 6, 5, 4)
    tableaux = enumerate_reduced_word_tableaux(w)
    assert len(reduced_words(w)) == sum(
        hook_length_count(shape(t)) for t in tableaux
    )


def test_reduced_word_tableaux_of_w0():
    tableaux = enumerate_reduced_word_tableaux(longest_element(4))
    assert tableaux == [((1, 2, 3), (2, 3), (3,))]


def test_reduced_word_tableaux_shapes():
    tableaux = enumerate_reduced_word_tableaux((2, 3, 1, 6, 5, 4))
    assert [shape(t) for t in tableaux] == [
        (2, 1, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (3, 2),
    ]
    # 321654 factors as a direct sum of two copies of 321, so the shape
    # multiset is the Littlewood-Richardson square of (2,1).
    tableaux = enumerate_reduced_word_tableaux((3, 2, 1, 6, 5, 4))
    assert sorted(shape(t) for t in tableaux) == [
        (2, 2, 1, 1),
        (2, 2, 2),
        (3, 1, 1, 1),
        (3, 2, 1),
        (3, 2, 1),
        (3, 3),
        (4, 1, 1),
        (4, 2),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_definition_on_all_of_sn(n):
    for w in all_permutations(n):
        assert enumerate_reduced_word_tableaux(w) == tableaux_by_definition(w)


def test_enumeration_matches_definition_on_small_s6():
    memo = {}
    checked = 0
    for w in all_permutations(6):
        if count_reduced_words(w, memo) <= 2000:
            assert enumerate_reduced_word_tableaux(w) == tableaux_by_definition(w)
            checked += 1
    assert checked == 652


@pytest.mark.parametrize(
    "w",
    [
        (2, 3, 1, 6, 5, 4),
        (3, 2, 1, 6, 5, 4),
        (5, 4, 3, 2, 1),
        (1, 3, 5, 7, 2, 4, 6),
        (5, 4, 3, 2, 1, 7, 6),
    ],
)
def test_enumeration_matches_definition_on_expand_anchors(w):
    assert enumerate_reduced_word_tableaux(w) == tableaux_by_definition(w)


_rng = random.Random(2018)
S8_SAMPLE = [tuple(_rng.sample(range(1, 9), 8)) for _ in range(20)]


@pytest.mark.parametrize("w", S8_SAMPLE)
def test_s8_tableaux_route_agrees_with_tree_leaves(w):
    assert eg_coeffs(w, "tableaux") == eg_coeffs(w, "mls_leaves")


@pytest.mark.parametrize("w", S8_SAMPLE)
def test_s8_stanley_count(w):
    # |Red(w)| = sum over the reduced word tableaux of f^shape.
    assert sum(
        hook_length_count(shape(t)) for t in enumerate_reduced_word_tableaux(w)
    ) == count_reduced_words(w, {})


def test_w0_of_s7_has_only_the_frozen_tableau():
    w0 = longest_element(7)
    assert enumerate_reduced_word_tableaux(w0) == [frozen_tableau(w0)]


def test_is_reduced_word_tableau():
    t = ((1, 4, 5), (2,), (5,))
    assert is_reduced_word_tableau(t, (2, 3, 1, 6, 5, 4))
    assert not is_reduced_word_tableau(t, (3, 1, 2, 6, 5, 4))
    assert not is_reduced_word_tableau(t, (2, 3, 1, 6, 4, 5))
    assert not is_reduced_word_tableau(((1, 1),), (2, 1, 3))
    assert not is_reduced_word_tableau(((5,),), (2, 1, 3))
    # Both reading words are (3, 1, 3), which evaluates to 2134 without
    # being reduced.
    assert not is_reduced_word_tableau(((1, 3), (3,)), (2, 1, 3, 4))


@settings(deadline=None)
@given(reduced())
def test_membership_matches_enumeration(a):
    from stanley.words import evaluate, word

    w = evaluate(word(a))
    p = insertion_tableau(a[::-1])
    assert is_reduced_word_tableau(p, w)
    assert p in enumerate_reduced_word_tableaux(w)


def test_frozen_tableau():
    assert frozen_tableau((4, 2, 3, 1, 5, 6)) == ((1, 2, 3), (2,), (3,))
    assert frozen_tableau((3, 4, 2, 1)) == ((1, 2), (2, 3), (3,))
    assert frozen_tableau((1, 2, 3)) == ()
    with pytest.raises(ValueError, match="not dominant"):
        frozen_tableau((1, 3, 2, 4))


def test_frozen_tableau_matches_the_code_partition():
    # Every element of S1-S6: the same tableau when dominant, and the same
    # error otherwise.
    dominant = 0
    for n in range(1, 7):
        for w in all_permutations(n):
            if is_dominant_by_code(w):
                assert frozen_tableau(w) == frozen_tableau_by_code_partition(w), w
                dominant += 1
                continue
            for build in (frozen_tableau, frozen_tableau_by_code_partition):
                with pytest.raises(ValueError, match=f"^{re.escape(str(w))} is not dominant$"):
                    build(w)
    # The dominant elements of S_n are counted by the Catalan numbers.
    assert dominant == 1 + 2 + 5 + 14 + 42 + 132


def test_frozen_tableau_is_the_unique_one():
    w = (3, 4, 2, 1)
    assert enumerate_reduced_word_tableaux(w) == [frozen_tableau(w)]


def test_parse_format_round_trip():
    t = ((1, 4, 5), (2,), (5,))
    assert parse_tableau("1,4,5/2/5") == t
    assert parse_tableau(format_tableau(t)) == t
    assert parse_tableau("") == ()
    with pytest.raises(ValueError, match="not a tableau"):
        parse_tableau("1/2,3")
