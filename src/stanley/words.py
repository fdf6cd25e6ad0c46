"""
Words in the alphabet of simple transpositions, line diagrams, and the
Little map.

A ``Word`` is a sequence of letters a_t in {1, ..., n-1} together with its
ambient size n.  The ambient size is explicit because the bump operation can
grow it (bumping a letter equal to 1 increments every other letter), and
because the inverse Little map must stop where a letter would pass n - 1.

Evaluation multiplies simple transpositions on the right: each letter a_t
swaps the entries currently in positions a_t, a_t + 1.

>>> evaluate(Word((5, 4, 1, 2, 5), 6))
(2, 3, 1, 6, 5, 4)
"""

from __future__ import annotations

from typing import NamedTuple

from .permutations import Perm, length


class Word(NamedTuple):
    letters: tuple[int, ...]
    n: int

    def __str__(self) -> str:
        return format_word(self.letters)


def word(letters, n: int | None = None) -> Word:
    """Build a Word, defaulting the ambient size to the smallest possible."""
    letters = tuple(letters)
    if any(a < 1 for a in letters):
        raise ValueError(f"letters must be positive: {letters}")
    least = max(letters, default=0) + 1
    if n is None:
        n = least
    elif n < least:
        if not letters:
            raise ValueError(f"ambient size {n} is below 1")
        raise ValueError(f"letter {least - 1} does not fit in ambient size {n}")
    return Word(letters, n)


def evaluate(a: Word) -> Perm:
    """The permutation s_{a_1} s_{a_2} ... s_{a_l}, in one-line notation."""
    window = list(range(1, a.n + 1))
    for t in a.letters:
        if not 1 <= t < a.n:
            raise ValueError(f"letter {t} out of range for ambient size {a.n}")
        window[t - 1], window[t] = window[t], window[t - 1]
    return tuple(window)


def is_reduced(a: Word) -> bool:
    """
    A word is reduced when no shorter word evaluates to the same thing,
    that is when it has as many letters as its permutation has inversions.
    Every letter must be in range for a.n.

    >>> is_reduced(Word((1, 2, 1), 3)), is_reduced(Word((1, 2, 2), 3))
    (True, False)
    """
    return len(a.letters) == length(evaluate(a))


def crossing_pairs(a: Word) -> list[tuple[int, int]]:
    """The pair of values interchanged at each time, as (smaller, larger);
    they are distinct exactly when the word is reduced."""
    return _crossings(a.letters, a.n)[1]


def _crossings(letters, n: int) -> tuple[Perm, list[tuple[int, int]]]:
    """One pass over the letters of a word in ambient size n: the
    permutation it evaluates to and its crossing_pairs."""
    window = list(range(1, n + 1))
    pairs = []
    for t in letters:
        if not 1 <= t < n:
            raise ValueError(f"letter {t} out of range for ambient size {n}")
        u, v = window[t - 1], window[t]
        pairs.append((u, v) if u < v else (v, u))
        window[t - 1], window[t] = v, u
    return tuple(window), pairs


def little_bump(a: Word, t1: int) -> Word:
    """
    The Little bump of a starting at t1.

    Requires t1 in 1..len(a), a reduced and a^(t1) (a with letter t1
    deleted) also reduced.  Bump letter t1: lower it by one if it exceeds
    1, or else keep it and raise every other letter, growing the ambient
    size by one.  While the word is unreduced, the pair of lines that
    cross at the letter just bumped is the unique pair crossing twice
    (Little 2003).  Bump the letter at the other time they cross and
    repeat.

    >>> little_bump(Word((3, 1, 4, 5, 2), 6), 4).letters
    (2, 1, 3, 4, 2)
    """
    if not 1 <= t1 <= len(a.letters):
        raise ValueError(f"bump index {t1} out of range")
    w, pairs = _crossings(a.letters, a.n)
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"word is not reduced: {a.letters}")
    return _bump(a, t1, w, pairs, upward=False)


def _bump(a: Word, t1: int, w: Perm, pairs, upward: bool) -> Word | None:
    """
    The bump chain of the reduced word a from t1, given w = evaluate(a) and
    the crossing pairs of a.  Downward (little_map, little_bump) each bump
    lowers a letter by one, and a letter at 1 instead stays and raises
    every other letter, growing the ambient size by one.  Upward
    (little_map_inverse) each bump raises a letter by one; a letter at
    n - 1 cannot go higher, and the chain returns None there.  Raises
    ValueError when a^(t1) is not reduced.  The letters are edited in
    place and each bumped word is walked once, for its crossing pairs.
    """
    # Deleting letter t1 swaps the values u < v of w, v sitting left of u as
    # the lines cross once.  The result is one letter shorter exactly when
    # no value between u and v sits between them (permutations._covers).
    u, v = pairs[t1 - 1]
    if any(u < x < v for x in w[w.index(v) + 1 : w.index(u)]):
        raise ValueError(f"deleting letter {t1} does not leave a reduced word")
    letters, n, t = list(a.letters), a.n, t1
    guard = 10 * (n + len(letters)) ** 2
    for _ in range(guard):
        x = letters[t - 1]
        if upward:
            if x == n - 1:
                return None
            letters[t - 1] = x + 1
        elif x > 1:
            letters[t - 1] = x - 1
        else:
            letters = [y + 1 for y in letters]
            letters[t - 1] = 1
            n += 1
        pairs = _crossings(letters, n)[1]
        if len(set(pairs)) == len(pairs):
            return Word(tuple(letters), n)
        pair = pairs[t - 1]
        others = [s for s, p in enumerate(pairs, start=1) if s != t and p == pair]
        assert len(others) == 1, (a.letters, tuple(letters), others)
        t = others[0]
    raise AssertionError(f"bump chain did not terminate within {guard} steps")


def little_map(a: Word, k: int, v: int) -> Word:
    """
    The Little map theta_{k,v}: bump a, a reduced word of w, at the unique
    crossing interchanging the values w_k and v, and run the bump to
    completion.  The result is a reduced word of the permutation that moves
    the w_k/v transposition one step up the transition recursion; its descent
    set equals that of a.

    >>> little_map(Word((3, 1, 4, 5, 2), 6), 5, 3).letters
    (2, 1, 3, 4, 2)
    >>> little_map(Word((5, 3, 1, 2, 4), 6), 4, 5).letters
    (4, 3, 1, 2, 4)
    """
    return _bump(a, *_start_time(a, k, v), upward=False)


def _start_time(a: Word, k: int, v: int) -> tuple[int, Perm, list[tuple[int, int]]]:
    """Check the letters of a, its reducedness (no pair of lines crosses
    twice), k and v (in range, and not w_k), in that order.  Return the
    unique 1-based time at which the lines carrying w_k and v cross in a,
    with w and the crossing pairs of a, all from one pass over a."""
    w, pairs = _crossings(a.letters, a.n)
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"word is not reduced: {a.letters}")
    if not 1 <= k <= a.n:
        raise ValueError(f"index k={k} out of range for ambient size {a.n}")
    if not 1 <= v <= a.n:
        raise ValueError(f"value v={v} out of range for ambient size {a.n}")
    u = w[k - 1]
    if u == v:
        raise ValueError(f"value v={v} equals w_{k}, so there are no two lines to bump")
    wanted = (min(u, v), max(u, v))
    times = [t for t, pair in enumerate(pairs, start=1) if pair == wanted]
    if len(times) != 1:
        raise ValueError(f"values {wanted} cross {len(times)} times in {a.letters}")
    return times[0], w, pairs


def reverse(a: Word) -> Word:
    """a^rev: the letters read backwards."""
    return Word(a.letters[::-1], a.n)


def little_map_inverse(a: Word, k: int, v: int) -> Word:
    """
    The inverse of little_map(..., k, v): the same bump chain, started at
    the same crossing and checked the same way, with each bump raising its
    letter by one instead of lowering it.  Raises ValueError when a letter
    at n - 1 would have to go higher: no word in ambient size n maps to a.

    >>> little_map_inverse(Word((3, 2, 1, 2, 3), 6), 2, 4).letters
    (4, 3, 1, 2, 3)
    """
    out = _bump(a, *_start_time(a, k, v), upward=True)
    if out is None:
        raise ValueError(
            f"{format_word(a.letters)} is not in the image of theta_{{{k},{v}}} "
            f"in ambient size {a.n}"
        )
    return out


def parse_word(text: str) -> tuple[int, ...]:
    """Accepts "(5,4,1,2,5)", "5,4,1,2,5", or "5 4 1 2 5"."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        letters = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse word: {text!r}") from None
    if any(x < 1 for x in letters):
        raise ValueError(f"letters must be positive: {text!r}")
    return letters


def format_word(letters: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in letters) + ")"
