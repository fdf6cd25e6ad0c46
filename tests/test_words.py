import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bump_at,
    complement_word,
    delete_letter,
    is_reduced_by_ascents,
    little_bump_by_deletion,
    little_map_by_words,
    little_map_inverse_by_complement,
)
from stanley.permutations import all_permutations, reduced_words
from stanley.words import (
    Word,
    crossing_pairs,
    evaluate,
    format_word,
    is_reduced,
    little_bump,
    little_map,
    little_map_inverse,
    parse_word,
    reverse,
    word,
)


@st.composite
def reduced(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    words = reduced_words(w)
    return Word(words[draw(st.integers(0, len(words) - 1))], n)


def descent_set(letters):
    return {t for t in range(1, len(letters)) if letters[t - 1] > letters[t]}


def admissible(a):
    """The t1 at which a can be bumped: those with a^(t1) reduced."""
    return [t for t in range(1, len(a.letters) + 1) if is_reduced(delete_letter(a, t))]


def test_word_constructor_defaults_ambient_size():
    assert word((5, 4, 1, 2, 5)) == Word((5, 4, 1, 2, 5), 6)
    assert word((2, 1), n=4) == Word((2, 1), 4)
    with pytest.raises(ValueError, match="does not fit"):
        word((3, 1), n=3)
    assert word(()) == Word((), 1)
    with pytest.raises(ValueError, match="^ambient size 0 is below 1$"):
        word((), 0)


def test_evaluate():
    assert evaluate(Word((5, 4, 1, 2, 5), 6)) == (2, 3, 1, 6, 5, 4)
    assert evaluate(Word((), 3)) == (1, 2, 3)
    assert evaluate(Word((1, 2, 1), 3)) == (3, 2, 1)


def test_is_reduced():
    assert is_reduced(Word((1, 2, 1), 3))
    assert not is_reduced(Word((1, 1), 3))
    assert not is_reduced(Word((3, 1, 3, 4, 2), 6))


def pairs_are_distinct(a):
    """The reading of reducedness that _bump uses: no two lines cross twice."""
    pairs = crossing_pairs(a)
    return len(set(pairs)) == len(pairs)


def test_is_reduced_matches_length():
    # Every word of at most 6 letters in ambient sizes 1 to 5.
    for n in range(1, 6):
        for size in range(7):
            for letters in product(range(1, n), repeat=size):
                a = Word(letters, n)
                assert is_reduced(a) == is_reduced_by_ascents(a) == pairs_are_distinct(a)


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), max_size=20).map(
            lambda letters: Word(tuple(letters), n)
        )
    )
)
def test_is_reduced_matches_length_random(a):
    assert is_reduced(a) == is_reduced_by_ascents(a) == pairs_are_distinct(a)


def test_is_reduced_checks_every_letter():
    # (1, 1) is not reduced, and the 5 after it is still out of range; the
    # first letter out of range is the one named.
    for letters, bad in (((1, 1, 5), 5), ((0, 7), 0), ((2, 3, 1), 3)):
        for check in (is_reduced, is_reduced_by_ascents):
            with pytest.raises(
                ValueError, match=f"^letter {bad} out of range for ambient size 3$"
            ):
                check(Word(letters, 3))


def test_crossing_pairs():
    assert crossing_pairs(Word((3, 1, 4, 5, 2), 6)) == [
        (3, 4),
        (1, 2),
        (3, 5),
        (3, 6),
        (1, 4),
    ]
    # Letter 0 would read the last window slot and letter n past its end.
    for letters in ((0,), (3,), (1, 3)):
        with pytest.raises(ValueError, match="letter . out of range for ambient size 3"):
            crossing_pairs(Word(letters, 3))


def test_little_map_starts_at_the_one_crossing():
    # The lines carrying 3 and 6 cross once, at time 4, whichever of the
    # two is w_k; the lines carrying 5 and 6 never cross.
    a = Word((3, 1, 4, 5, 2), 6)
    assert evaluate(a) == (2, 4, 1, 5, 6, 3)
    assert little_map(a, 5, 3) == little_map(a, 6, 6) == little_bump(a, 4)
    for theta in (little_map, little_map_inverse):
        with pytest.raises(
            ValueError, match=r"^values \(5, 6\) cross 0 times in \(3, 1, 4, 5, 2\)$"
        ):
            theta(a, 4, 6)
        with pytest.raises(ValueError, match="letter 0 out of range"):
            theta(Word((0,), 3), 1, 3)


def test_bump_at():
    assert bump_at(Word((3, 1, 4, 5, 2), 6), 4) == Word((3, 1, 4, 4, 2), 6)
    assert bump_at(Word((2, 1), 3), 2) == Word((3, 1), 4)
    assert bump_at(Word((3, 2, 1, 2, 3), 6), 1).letters == (2, 2, 1, 2, 3)
    assert bump_at(Word((1, 2), 3), 1) == Word((1, 3), 4)
    with pytest.raises(ValueError, match="out of range"):
        bump_at(Word((2, 1), 3), 3)


def test_delete_letter():
    a = Word((3, 1, 4, 5, 2), 6)
    assert delete_letter(a, 1) == Word((1, 4, 5, 2), 6)
    assert delete_letter(a, 5) == Word((3, 1, 4, 5), 6)
    for t in (0, 6, -1):
        with pytest.raises(ValueError, match=f"^deletion index {t} out of range$"):
            delete_letter(a, t)


def test_little_bump_checks_the_start_first():
    # The index is checked before the letters, reducedness or the deletion.
    for a in (Word((3, 1, 4, 5, 2), 6), Word((1, 1, 9), 3)):
        for t1 in (0, len(a.letters) + 1, -1):
            with pytest.raises(ValueError, match=f"^bump index {t1} out of range$"):
                little_bump(a, t1)


def test_little_bump_push_down():
    assert little_bump(Word((3, 1, 4, 5, 2), 6), 4) == Word((2, 1, 3, 4, 2), 6)
    assert evaluate(Word((2, 1, 3, 4, 2), 6)) == (3, 4, 1, 5, 2, 6)


def test_little_bump_wraps_bottom_line():
    # Pushing the lone crossing of s_2 s_1 below row 1 re-enters as a new
    # bottom row: the ambient size grows and the word is unchanged.
    assert little_bump(Word((2, 1), 3), 1) == Word((2, 1), 4)


def test_little_bump_rejects_bad_input():
    with pytest.raises(ValueError, match="not reduced"):
        little_bump(Word((1, 1), 3), 1)
    with pytest.raises(ValueError, match="does not leave a reduced word"):
        little_bump(Word((1, 2, 1), 3), 2)


@settings(deadline=None)
@given(reduced(), st.data())
def test_little_bump_preserves_descents_and_length(a, data):
    valid = admissible(a)
    if not valid:
        return
    t1 = data.draw(st.sampled_from(valid))
    b = little_bump(a, t1)
    assert is_reduced(b)
    assert len(b.letters) == len(a.letters)
    assert descent_set(b.letters) == descent_set(a.letters)


def random_reduced_word(w, rng):
    """A reduced word of w, read off by sorting w with random adjacent
    swaps of descents, the last swap first."""
    w, letters = list(w), []
    while descents := [i for i in range(1, len(w)) if w[i - 1] > w[i]]:
        i = rng.choice(descents)
        w[i - 1], w[i] = w[i], w[i - 1]
        letters.append(i)
    return tuple(reversed(letters))


def test_little_bump_matches_deletion_oracle():
    # Every reduced word of S1-S5, then 3,000 seeded reduced words of S6.
    words = [
        Word(letters, n)
        for n in range(1, 6)
        for w in all_permutations(n)
        for letters in reduced_words(w)
    ]
    rng = random.Random(6)
    for _ in range(3000):
        words.append(Word(random_reduced_word(rng.sample(range(1, 7), 6), rng), 6))
    for a in words:
        for t1 in admissible(a):
            assert little_bump(a, t1) == little_bump_by_deletion(a, t1)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def test_little_maps_match_the_word_at_a_time_oracles():
    # Every reduced word of S1-S5, then seeded reduced words of S6 and S7,
    # each with every (k, v) in 1..n, those outside the image included.
    words = [
        Word(letters, n)
        for n in range(1, 6)
        for w in all_permutations(n)
        for letters in reduced_words(w)
    ]
    rng = random.Random(7)
    for n, count in ((6, 150), (7, 60)):
        for _ in range(count):
            words.append(Word(random_reduced_word(rng.sample(range(1, n + 1), n), rng), n))
    for a in words:
        for k, v in product(range(1, a.n + 1), repeat=2):
            assert outcome(little_map, a, k, v) == outcome(little_map_by_words, a, k, v)
            assert outcome(little_map_inverse, a, k, v) == outcome(
                little_map_inverse_by_complement, a, k, v
            )


def test_little_map_known_values():
    assert little_map(Word((3, 1, 4, 5, 2), 6), 5, 3).letters == (2, 1, 3, 4, 2)
    assert little_map(Word((5, 4, 1, 2, 5), 6), 5, 4).letters == (5, 3, 1, 2, 4)


def test_little_map_rejects_bad_input():
    # The letters are evaluated first, then reducedness, then k, then v,
    # then the deletion that the bump needs, all on the caller's word.
    for theta in (little_map, little_map_inverse):
        with pytest.raises(ValueError, match="letter 5 out of range for ambient size 3"):
            theta(Word((1, 1, 5), 3), 7, 9)
        with pytest.raises(ValueError, match=r"word is not reduced: \(1, 1\)"):
            theta(Word((1, 1), 3), 7, 9)
        with pytest.raises(ValueError, match="index k=0 out of range for ambient size 3"):
            theta(Word((1, 2, 1), 3), 0, 9)
        with pytest.raises(ValueError, match="value v=4 out of range for ambient size 3"):
            theta(Word((1, 2, 1), 3), 1, 4)
        with pytest.raises(
            ValueError, match="deleting letter 2 does not leave a reduced word"
        ):
            theta(Word((1, 2, 1), 3), 3, 3)


def test_little_map_chain():
    # Transition chain from a reduced word of 231654 down to a word whose
    # permutation has weakly decreasing Lehmer code.
    a = Word((5, 4, 1, 2, 5), 6)
    steps = [
        (5, 4, (5, 3, 1, 2, 4), (2, 4, 1, 6, 3, 5)),
        (4, 5, (4, 3, 1, 2, 4), (2, 5, 1, 4, 3, 6)),
        (4, 3, (4, 3, 1, 2, 3), (2, 5, 3, 1, 4, 6)),
        (2, 4, (3, 2, 1, 2, 3), (4, 2, 3, 1, 5, 6)),
    ]
    for k, v, letters, perm in steps:
        a = little_map(a, k, v)
        assert a.letters == letters
        assert evaluate(a) == perm


def test_little_map_inverse_chain():
    a = Word((3, 2, 1, 2, 3), 6)
    steps = [
        (2, 4, (4, 3, 1, 2, 3)),
        (4, 3, (4, 3, 1, 2, 4)),
        (4, 5, (5, 3, 1, 2, 4)),
        (5, 4, (5, 4, 1, 2, 5)),
    ]
    for k, v, letters in steps:
        a = little_map_inverse(a, k, v)
        assert a.letters == letters


def test_little_map_round_trip():
    for k, v, letters in [
        (5, 4, (5, 4, 1, 2, 5)),
        (4, 5, (5, 3, 1, 2, 4)),
        (4, 3, (4, 3, 1, 2, 4)),
        (2, 4, (4, 3, 1, 2, 3)),
    ]:
        a = Word(letters, 6)
        assert little_map_inverse(little_map(a, k, v), k, v) == a


@given(reduced())
def test_complement_word_involution(a):
    assert complement_word(complement_word(a)) == a
    assert is_reduced(complement_word(a))


def test_complement_word_names_the_first_bad_letter():
    for letters, bad in (((2, 5, 0), 5), ((0, 5), 0), ((1, 4), 4)):
        with pytest.raises(ValueError, match=f"^letter {bad} out of range for ambient size 4$"):
            complement_word(Word(letters, 4))


def test_reverse():
    assert reverse(Word((5, 4, 1, 2, 5), 6)) == Word((5, 2, 1, 4, 5), 6)


@given(reduced())
def test_reverse_preserves_reducedness(a):
    assert is_reduced(reverse(a))


def test_parse_format_word():
    assert parse_word("(5,4,1,2,5)") == (5, 4, 1, 2, 5)
    assert parse_word("5 4 1 2 5") == (5, 4, 1, 2, 5)
    assert parse_word("5,4,1,2,5") == (5, 4, 1, 2, 5)
    assert format_word((5, 4, 1, 2, 5)) == "(5,4,1,2,5)"
    assert parse_word("()") == ()
    with pytest.raises(ValueError):
        parse_word("(0,1)")
