"""
Words in the alphabet of simple transpositions, line diagrams, and the
Little map.

A ``Word`` is a sequence of letters a_t in {1, ..., n-1} together with its
ambient size n.  The ambient size is explicit because the bump operation can
grow it (bumping a letter equal to 1 increments every other letter), and
because complementing a word only makes sense relative to a declared n.

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
    return _crossings(a)[1]


def _crossings(a: Word) -> tuple[Perm, list[tuple[int, int]]]:
    """One pass over the letters of a: the permutation it evaluates to and
    its crossing_pairs."""
    window = list(range(1, a.n + 1))
    pairs = []
    for t in a.letters:
        if not 1 <= t < a.n:
            raise ValueError(f"letter {t} out of range for ambient size {a.n}")
        u, v = window[t - 1], window[t]
        pairs.append((u, v) if u < v else (v, u))
        window[t - 1], window[t] = v, u
    return tuple(window), pairs


def delete_letter(a: Word, t: int) -> Word:
    """a^(t): the word with the t-th letter removed (t is 1-based)."""
    return Word(a.letters[: t - 1] + a.letters[t:], a.n)


def bump_at(a: Word, t: int) -> Word:
    """
    a up-arrow t.  Decrement letter t if it exceeds 1; otherwise keep it and
    increment every other letter, growing the ambient size by one.

    >>> bump_at(Word((3, 2, 1, 2, 3), 6), 1).letters
    (2, 2, 1, 2, 3)
    >>> bump_at(Word((1, 2), 3), 1)
    Word(letters=(1, 3), n=4)
    """
    if not 1 <= t <= len(a.letters):
        raise ValueError(f"bump index {t} out of range")
    if a.letters[t - 1] > 1:
        letters = list(a.letters)
        letters[t - 1] -= 1
        return Word(tuple(letters), a.n)
    letters = tuple(x if i == t - 1 else x + 1 for i, x in enumerate(a.letters))
    return Word(letters, a.n + 1)


def little_bump(a: Word, t1: int) -> Word:
    """
    The Little bump of a starting at t1.

    Requires a reduced with a^(t1) also reduced.  Bump at t1; while the word
    is unreduced, the pair of lines that cross at the letter just bumped
    is the unique pair crossing twice (Little 2003).  Bump the letter at
    the other time they cross and repeat.

    >>> little_bump(Word((3, 1, 4, 5, 2), 6), 4).letters
    (2, 1, 3, 4, 2)
    """
    if not is_reduced(a):
        raise ValueError(f"word is not reduced: {a.letters}")
    return _bump(a, t1)


def _bump(a: Word, t1: int) -> Word:
    """little_bump of a word a already known to be reduced."""
    if not is_reduced(delete_letter(a, t1)):
        raise ValueError(f"deleting letter {t1} does not leave a reduced word")
    guard = 10 * (a.n + len(a.letters)) ** 2
    b, t = bump_at(a, t1), t1
    for _ in range(guard):
        pairs = crossing_pairs(b)
        if len(set(pairs)) == len(pairs):
            return b
        others = [
            s for s, pair in enumerate(pairs, start=1) if s != t and pair == pairs[t - 1]
        ]
        assert len(others) == 1, (a.letters, b.letters, others)
        t = others[0]
        b = bump_at(b, t)
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
    return _bump(a, _start_time(a, k, v))


def _start_time(a: Word, k: int, v: int) -> int:
    """Check the letters of a, its reducedness, k and v (in range, and not
    w_k), in that order, and return the unique 1-based time at which the
    lines carrying w_k and v cross in a.  One pass over a gives both w and
    the crossings."""
    w, pairs = _crossings(a)
    if len(a.letters) != length(w):
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
    return times[0]


def reverse(a: Word) -> Word:
    """a^rev: the letters read backwards."""
    return Word(a.letters[::-1], a.n)


def complement_word(a: Word) -> Word:
    """
    a^c = (n - a_1, ..., n - a_l); a reduced word of the reverse-complement
    of evaluate(a).
    """
    for t in a.letters:
        if not 1 <= t < a.n:
            raise ValueError(f"letter {t} out of range for ambient size {a.n}")
    return Word(tuple([a.n - x for x in a.letters]), a.n)


def little_map_inverse(a: Word, k: int, v: int) -> Word:
    """
    The inverse of little_map(..., k, v), computed by conjugating the forward
    map with the word complement:

        theta_{k,v}^{-1}(a) = (theta_{n+1-k, n+1-v}(a^c))^c

    Complementing relabels each line i as n + 1 - i, so the bump of a^c
    starts where the lines carrying w_k and v cross in a, found and checked
    on a itself as in little_map.  Raises ValueError when the conjugated
    bump grows the ambient size: no word in ambient size n maps to a.

    >>> little_map_inverse(Word((3, 2, 1, 2, 3), 6), 2, 4).letters
    (4, 3, 1, 2, 3)
    """
    t1 = _start_time(a, k, v)
    out = _bump(complement_word(a), t1)
    if out.n != a.n:
        raise ValueError(
            f"{format_word(a.letters)} is not in the image of theta_{{{k},{v}}} "
            f"in ambient size {a.n}"
        )
    return complement_word(out)


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
