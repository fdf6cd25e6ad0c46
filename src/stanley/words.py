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


class Scan(NamedTuple):
    """A word with what one pass over its letters gives: the permutation
    it evaluates to and its crossing pairs.  Each step of a Little chain
    hands its Scan to the next, so no word is walked twice."""

    word: Word
    perm: Perm
    pairs: list[tuple[int, int]]


def scan(a: Word) -> Scan:
    """One pass over a; ValueError for a letter out of range."""
    return Scan(a, *_crossings(a.letters, a.n))


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
    s = scan(a)
    if len(set(s.pairs)) != len(s.pairs):
        raise ValueError(f"word is not reduced: {a.letters}")
    return _bump(s, t1, upward=False).word


def _bump(s: Scan, t1: int, upward: bool) -> Scan | None:
    """
    The bump chain of the reduced word s.word from t1.  Downward
    (little_map, little_bump) each bump lowers a letter by one, and a
    letter at 1 instead stays and raises every other letter, growing the
    ambient size by one.  Upward (little_map_inverse) each bump raises a
    letter by one; a letter at n - 1 cannot go higher, and the chain
    returns None there.  Raises ValueError when a^(t1) is not reduced.  The
    letters are edited in place and each bumped word is walked once; the
    walk of the last one is returned with it.
    """
    a, w, pairs = s
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
        w, pairs = _crossings(letters, n)
        if len(set(pairs)) == len(pairs):
            return Scan(Word(tuple(letters), n), w, pairs)
        # The pair just bumped crosses twice: at t and at the other time.
        pair = pairs[t - 1]
        assert pairs.count(pair) == 2, (
            a.letters,
            tuple(letters),
            [r for r, p in enumerate(pairs, start=1) if r != t and p == pair],
        )
        first = pairs.index(pair)
        t = first + 1 if first != t - 1 else pairs.index(pair, t) + 1
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
    return little_chain(scan(a), k, v, upward=False).word


def little_chain(s: Scan, k: int, v: int, upward: bool) -> Scan:
    """
    theta_{k,v} (downward) or its inverse (upward) on the scanned word
    s: the checks of _start_time on s, then the bump chain, returning the
    result with the pass that checked it.  little_map and
    little_map_inverse are this on scan(a); a walk feeds each result to
    its next map, so every word of the walk is scanned once.
    """
    out = _bump(s, _start_time(s, k, v), upward)
    if out is None:
        raise ValueError(
            f"{format_word(s.word.letters)} is not in the image of theta_{{{k},{v}}} "
            f"in ambient size {s.word.n}"
        )
    return out


def _start_time(s: Scan, k: int, v: int) -> int:
    """Check the reducedness of the scanned word a (no pair of lines
    crosses twice), then k and v (in range, and not w_k), in that order;
    scan(a) has checked its letters.  Return the unique 1-based time at
    which the lines carrying w_k and v cross in a."""
    a, w, pairs = s
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
    times = pairs.count(wanted)
    if times != 1:
        raise ValueError(f"values {wanted} cross {times} times in {a.letters}")
    return pairs.index(wanted) + 1


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
    return little_chain(scan(a), k, v, upward=True).word


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
