"""
Increasing tableaux and Coxeter-Knuth (Edelman-Greene) insertion.

A tableau is a tuple of rows, each row a tuple of positive integers, with
weakly decreasing row lengths.  "Increasing" means rows and columns are both
strictly increasing.

The reduced word tableaux of w are the insertion tableaux of the reduced
words of the inverse of w.  They are enumerated down the weak order,
inserting one descent at a time into the tableaux of the element below, so
the work is per (element, tableau) rather than per reduced word.

>>> eg_insert((2, 1, 2))
(((1, 2), (2,)), ((1, 3), (2,)))
"""

from __future__ import annotations

from bisect import bisect_right
from operator import lt
from typing import Iterable

from .permutations import (
    Perm,
    descents,
    inverse,
    lehmer_code,
    length,
    multiply_simple,
)
from .words import Word, evaluate

Tableau = tuple[tuple[int, ...], ...]


def shape(t: Tableau) -> tuple[int, ...]:
    return tuple(len(row) for row in t)


def is_partition_shape(t: Tableau) -> bool:
    lengths = shape(t)
    return all(a >= b for a, b in zip(lengths, lengths[1:])) and (
        not lengths or lengths[-1] > 0
    )


def is_increasing(t: Tableau) -> bool:
    """Strictly increasing along every row and down every column."""
    if not is_partition_shape(t):
        return False
    for row in t:
        if not all(map(lt, row, row[1:])):
            return False
    # Each lower row is no longer than the one above, so map stops at its end.
    for upper, lower in zip(t, t[1:]):
        if not all(map(lt, upper, lower)):
            return False
    return True


def row_reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows read left to right, from the bottom row up.

    >>> row_reading_word(((1, 4, 5), (2,), (5,)))
    (5, 2, 1, 4, 5)
    """
    out: list[int] = []
    for row in reversed(t):
        out.extend(row)
    return tuple(out)


def column_reading_word(t: Tableau) -> tuple[int, ...]:
    """Columns read top to bottom, from the rightmost column leftwards.

    >>> column_reading_word(((1, 4, 5), (2,), (5,)))
    (5, 4, 1, 2, 5)
    """
    if not t:
        return ()
    return tuple([row[j] for j in reversed(range(len(t[0]))) for row in t if len(row) > j])


def _row_insert(rows: list[list[int]], x: int) -> int:
    """
    Row-insert x into the increasing tableau rows, in place, and return the
    index of the row that gained a box.

    Append if x exceeds the last entry; otherwise bump the leftmost entry
    y > x, replacing it by x only when that keeps the row strictly
    increasing (when x already sits just left of y the row is kept as is).
    """
    for r, row in enumerate(rows):
        if x > row[-1]:
            row.append(x)
            return r
        j = bisect_right(row, x)
        # j < len(row) since x <= row[-1] and x equal to the row maximum
        # cannot happen while inserting a reduced word.
        assert j < len(row), f"letter {x} equals the maximum of row {row}"
        y = row[j]
        if j == 0 or row[j - 1] < x:
            row[j] = x
        x = y
    rows.append([x])
    return len(rows) - 1


def eg_insert(letters: Iterable[int]) -> tuple[Tableau, Tableau]:
    """
    Insert a word letter by letter (see _row_insert), returning the
    insertion tableau P and the standard recording tableau Q.

    >>> eg_insert((2, 3, 1, 6, 4, 3, 2))[0]
    ((1, 2, 4), (2, 3), (4,), (6,))
    >>> eg_insert((2, 3, 1, 6, 4, 3, 2))[1]
    ((1, 2, 4), (3, 5), (6,), (7,))
    """
    rows: list[list[int]] = []
    recording: list[list[int]] = []
    for time, x in enumerate(letters, start=1):
        r = _row_insert(rows, x)
        if r == len(recording):
            recording.append([time])
        else:
            recording[r].append(time)
    return tuple(map(tuple, rows)), tuple(map(tuple, recording))


def insertion_tableau(letters: Iterable[int]) -> Tableau:
    return eg_insert(letters)[0]


def is_reduced_word_tableau(t: Tableau, w: Perm) -> bool:
    """
    Does t represent w?  Equivalent tests: the column reading word is a
    reduced word for w, or the row reading word is a reduced word for the
    inverse of w.  Each is a word of length(w) letters evaluating to its
    permutation; both are evaluated and checked against each other.
    """
    if not is_increasing(t):
        return False
    n = len(w)
    entries = [x for row in t for x in row]
    if any(not 1 <= x < n for x in entries) or len(entries) != length(w):
        return False
    by_column = evaluate(Word(column_reading_word(t), n)) == w
    by_row = evaluate(Word(row_reading_word(t), n)) == inverse(w)
    assert by_column == by_row, (t, w)
    return by_column


def enumerate_reduced_word_tableaux(w: Perm) -> list[Tableau]:
    """
    All increasing tableaux whose column reading word is a reduced word of
    w: the insertion tableaux of the reduced words of the inverse v of w.
    Sorted by shape, then by row reading word.

    Insertion is online and a reduced word of v ends in a descent d with
    the rest a reduced word of v s_d.  So the tableaux of v are P <- d over
    the descents d of v and the tableaux P of v s_d, computed down the weak
    order with one set per element below v, never one word at a time.

    >>> enumerate_reduced_word_tableaux((3, 2, 1))
    [((1, 2), (2,))]
    """
    return sorted(
        _tableaux_of(inverse(w), {}), key=lambda t: (shape(t), row_reading_word(t))
    )


def _tableaux_of(v: Perm, memo: dict[Perm, set[Tableau]]) -> set[Tableau]:
    """Insertion tableaux of the reduced words of v, memoised in memo."""
    # Not nested in its caller: a recursive closure refers to itself through
    # its cell, so the memo would wait for the cycle collector instead of
    # being freed when the enumeration returns.
    if v in memo:
        return memo[v]
    down = descents(v)
    found: set[Tableau] = set() if down else {()}
    for d in down:
        for p in _tableaux_of(multiply_simple(v, d), memo):
            rows = [list(row) for row in p]
            _row_insert(rows, d)
            found.add(tuple(tuple(row) for row in rows))
    memo[v] = found
    return found


def frozen_tableau(w: Perm) -> Tableau:
    """
    The unique reduced word tableau of a dominant permutation: cell (i, j)
    holds i + j - 1 on the shape cut out by the Lehmer code.

    >>> frozen_tableau((4, 2, 3, 1, 5, 6))
    ((1, 2, 3), (2,), (3,))
    """
    code = lehmer_code(w)
    if any(a < b for a, b in zip(code, code[1:])):
        raise ValueError(f"{w} is not dominant")
    # A weakly decreasing code is its own partition once the zeros go.
    return tuple(
        tuple(range(i, i + part)) for i, part in enumerate(code, start=1) if part
    )


def parse_tableau(text: str) -> Tableau:
    """Rows separated by "/", entries by ",": "1,4,5/2/5"."""
    text = text.strip()
    if not text:
        return ()
    try:
        t = tuple(tuple(map(int, row.split(","))) for row in text.split("/"))
    except ValueError:
        raise ValueError(f"cannot parse tableau: {text!r}") from None
    if not is_partition_shape(t) or any(x < 1 for row in t for x in row):
        raise ValueError(f"not a tableau: {text!r}")
    return t


def format_tableau(t: Tableau) -> str:
    return "/".join(",".join(str(x) for x in row) for row in t)
