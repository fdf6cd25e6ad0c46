"""
Permutations of {1, ..., n} in one-line notation.

A permutation is a plain tuple ``w`` with ``w[i-1] = w_i``; values and
positions are 1-based to match the usual combinatorial conventions.  The
ambient size n is ``len(w)`` and is part of a permutation's identity: the
same window embedded in a larger symmetric group (``embed_left``)
compares unequal to the original.

>>> length((2, 3, 1, 6, 5, 4))
5
>>> lehmer_code((3, 5, 4, 1, 2))
(2, 3, 2, 0, 0)
"""

from __future__ import annotations

from itertools import combinations, permutations as _permutations, starmap
from operator import gt
from typing import Iterator, Sequence

Perm = tuple[int, ...]


def is_permutation(window: Sequence[int]) -> bool:
    """
    Check that window is a rearrangement of 1..n.

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 3), (1, 1, 2)]]
    [True, True, True, False, False]
    """
    return sorted(window) == list(range(1, len(window) + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return _permutations(range(1, n + 1))


def length(w: Perm) -> int:
    """
    Number of inversions; equals the number of letters in any reduced word.

    >>> length((1, 2, 3, 4))
    0
    >>> length((2, 3, 1, 6, 5, 4))
    5
    """
    return sum(starmap(gt, combinations(w, 2)))


def lehmer_code(w: Perm) -> tuple[int, ...]:
    """
    The Lehmer code c(w): c_i = #{j > i with w_j < w_i}.

    >>> lehmer_code((3, 5, 4, 1, 2))
    (2, 3, 2, 0, 0)
    """
    return tuple(sum(map(a.__gt__, w[i + 1:])) for i, a in enumerate(w))


def code_partition(w: Perm) -> tuple[int, ...]:
    """The shape λ(w): the Lehmer code sorted weakly decreasing, zeros dropped."""
    return tuple(sorted((c for c in lehmer_code(w) if c), reverse=True))


def perm_from_code(code: Sequence[int]) -> Perm:
    """
    Invert the Lehmer code: the unique w with lehmer_code(w) == code.

    >>> perm_from_code((3, 1, 1, 0, 0, 0))
    (4, 2, 3, 1, 5, 6)
    """
    available = list(range(1, len(code) + 1))
    window = []
    for c in code:
        if not 0 <= c < len(available):
            raise ValueError(f"invalid Lehmer code entry {c}")
        window.append(available.pop(c))
    return tuple(window)


def descents(w: Perm) -> list[int]:
    """Positions i with w_i > w_{i+1}, 1-based."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def is_dominant(w: Perm) -> bool:
    """
    132-avoiding, read off the equivalent condition: a weakly decreasing
    Lehmer code, computed entry by entry up to its first rise.

    >>> is_dominant((3, 4, 2, 1)), is_dominant((1, 3, 2))
    (True, False)
    """
    previous = len(w)
    for i, a in enumerate(w, start=1):
        c = sum(map(a.__gt__, w[i:]))
        if c > previous:
            return False
        previous = c
    return True


def is_grassmannian(w: Perm) -> bool:
    """At most one descent."""
    return len(descents(w)) <= 1


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """
    w t_{i,j}: swap the entries at positions i < j.

    >>> apply_transposition((6, 4, 5, 9, 7, 8, 3, 2, 1), 4, 6)
    (6, 4, 5, 8, 7, 9, 3, 2, 1)
    """
    if not 1 <= i < j <= len(w):
        raise ValueError(f"positions out of range: i={i}, j={j}, n={len(w)}")
    window = list(w)
    window[i - 1], window[j - 1] = window[j - 1], window[i - 1]
    return tuple(window)


def multiply_simple(w: Perm, i: int) -> Perm:
    """w s_i: swap the entries at positions i, i+1."""
    return apply_transposition(w, i, i + 1)


def last_descent_step(w: Perm) -> tuple[int, int, Perm, list[int]]:
    """
    The Lascoux-Schützenberger transition at the last descent r of w, with
    s the last position where w_s < w_r: r, s, v = w t_{rs} (one shorter
    than w) and the pivots of v at r.

    >>> last_descent_step((2, 3, 1, 6, 5, 4))
    (5, 6, (2, 3, 1, 6, 4, 5), [2, 3])
    """
    des = descents(w)
    if not des:
        raise ValueError("the identity has no transition")
    r = des[-1]
    s = max(j for j in range(r + 1, len(w) + 1) if w[j - 1] < w[r - 1])
    v = apply_transposition(w, r, s)
    assert length(v) == length(w) - 1, (w, r, s)
    return r, s, v, up_pivots(v, r)


def _covers(u: Perm, i: int, k: int) -> bool:
    """
    Whether u t_{ik}, for i < k, is exactly one longer than u: u_i < u_k
    and no entry between positions i and k lies between those values.
    """
    a, b = u[i - 1], u[k - 1]
    return a < b and not any(a < x < b for x in u[i:k - 1])


def up_pivots(u: Perm, k: int) -> list[int]:
    """The positions i < k with u t_{ik} one longer than u."""
    return [i for i in range(1, k) if _covers(u, i, k)]


def up_slots(u: Perm, k: int) -> list[int]:
    """The positions j > k with u t_{kj} one longer than u."""
    return [j for j in range(k + 1, len(u) + 1) if _covers(u, k, j)]


def embed_left(w: Perm) -> Perm:
    """1 x w: prepend a fixed point, shifting all values up by one."""
    return (1,) + tuple(v + 1 for v in w)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1, 6, 5, 4))
    (3, 1, 2, 6, 5, 4)
    """
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def reduced_words(w: Perm) -> list[tuple[int, ...]]:
    """
    All reduced words of w, lexicographically sorted.

    Peels a descent at a time: a word for w ends in d iff d is a descent,
    and the rest is a word for w s_d.

    >>> reduced_words((3, 2, 1))
    [(1, 2, 1), (2, 1, 2)]
    >>> reduced_words((1, 2, 3))
    [()]
    """
    if not descents(w):
        return [()]
    words = []
    for d in descents(w):
        for prefix in reduced_words(multiply_simple(w, d)):
            words.append(prefix + (d,))
    return sorted(words)


def parse_permutation(text: str) -> Perm:
    """
    Accepts comma-separated one-line notation ("2,3,1,6,5,4") or, for n <= 9,
    the compact digit string ("231654").
    """
    text = text.strip()
    try:
        if "," not in text and not text.isdigit():
            raise ValueError
        window = tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"cannot parse permutation: {text!r}") from None
    if not is_permutation(window):
        raise ValueError(f"not a permutation of 1..{len(window)}: {text!r}")
    return window


def format_permutation(w: Perm) -> str:
    """Compact digits for n <= 9, comma-separated otherwise."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)
