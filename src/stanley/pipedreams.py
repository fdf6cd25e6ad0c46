"""
Bumpless pipedreams on an n x n grid, in matrix coordinates (row 1 at the
top).  Pipe i enters from the south boundary in column i heading north and
exits from the east boundary in row w^-1(i); pipes only move north and
east, and no two pipes cross twice.

Each box holds one of six tiles, stored as single characters:

    '.'  empty box            '-'  horizontal line
    'r'  SE elbow (south+east)  '|'  vertical line
    'j'  NW elbow (west+north)  '+'  crossing

>>> print(render(rothe((2, 1, 3))))
.r-
r+-
||r
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NoReturn

from .permutations import Perm, apply_transposition, inverse, length, up_pivots

Box = tuple[int, int]

EDGES = {
    ".": frozenset(),
    "r": frozenset("SE"),
    "j": frozenset("WN"),
    "-": frozenset("WE"),
    "|": frozenset("SN"),
    "+": frozenset("SEWN"),
}
KIND_NAMES = {
    ".": "Empty",
    "r": "SEElbow",
    "j": "NWElbow",
    "-": "Horizontal",
    "|": "Vertical",
    "+": "Crossing",
}
UNICODE_TILES = {"r": "┌", "j": "┘", "-": "─", "|": "│", "+": "┼"}
FROM_UNICODE = {v: k for k, v in UNICODE_TILES.items()}
_KINDS = frozenset(EDGES)
_NORTH, _SOUTH, _EAST, _WEST = (
    frozenset(t for t, edges in EDGES.items() if side in edges) for side in "NSEW"
)
# _trace joins the rows with "\n" and reads each side's edges off as a
# string of flags, "1" where a box has that edge.  The separator has a
# west edge and no other, so every row must end with an east edge (the
# east boundary) and no row may start with a west edge (the west one).
_FLAGS = tuple(
    str.maketrans({t: "1" if t in side else "0" for t in (*EDGES, "\n")})
    for side in (_NORTH, _SOUTH, _EAST, _WEST | {"\n"})
)
# The tiles of a Rothe row west and east of its elbow, by column flag: "1"
# where a ray south from an elbow above crosses the row.
_WEST_OF_ELBOW = str.maketrans("01", ".|")
_EAST_OF_ELBOW = str.maketrans("01", "-+")
# A row as flags: "0" at an empty box, "1" at any other tile.
_EMPTY_FLAGS = str.maketrans({t: "0" if t == "." else "1" for t in EDGES})
# The tiles a pipe runs straight through, north-south and west-east.
_VERTICAL, _HORIZONTAL = frozenset("|+"), frozenset("-+")


@dataclass(frozen=True)
class BumplessPipedream:
    n: int
    rows: tuple[str, ...]

    def tile(self, i: int, j: int) -> str:
        return self.rows[i - 1][j - 1]

    def _boxes(self, kind: str) -> list[Box]:
        """The boxes holding tile kind, in row-major order."""
        boxes = []
        for i, row in enumerate(self.rows, start=1):
            j = row.find(kind)
            while j >= 0:
                boxes.append((i, j + 1))
                j = row.find(kind, j + 1)
        return boxes

    def empty_boxes(self) -> list[Box]:
        return self._boxes(".")

    def empty_flags(self) -> list[str]:
        """Each row as flags, "0" at an empty box and "1" elsewhere: the
        empty boxes in the form of rothe_flags."""
        return [row.translate(_EMPTY_FLAGS) for row in self.rows]

    def nw_elbows(self) -> list[Box]:
        return self._boxes("j")

    def se_elbows(self) -> list[Box]:
        return self._boxes("r")


# For as long as a grid lives, the entry [w, made]: the permutation w that
# validate traced for it, and the droop that made it, or None.  A droop
# from elbow (a, b) to target (c, d) is kept as (rows, a, b, c, d), with
# the rows of its input.  Grids hash and compare on (n, rows), so equal
# grids share the entry.
_TRACED: weakref.WeakKeyDictionary[BumplessPipedream, list] = weakref.WeakKeyDictionary()


def rothe(w: Perm) -> BumplessPipedream:
    """
    The droop-free pipedream of w: an SE elbow at each (i, w_i) with rays
    east and south, crossing where rays meet.  Its empty boxes are the
    Rothe diagram of w.

    Row i reads off the columns already holding a ray south, the columns
    w_k for k < i, kept as a string of flags: "1" for such a column.
    """
    columns = "0" * len(w)
    grid = []
    for c in w:
        west, east = columns[:c - 1], columns[c:]
        grid.append(west.translate(_WEST_OF_ELBOW) + "r" + east.translate(_EAST_OF_ELBOW))
        columns = west + "1" + east
    return BumplessPipedream(len(w), tuple(grid))


def rothe_flags(w: Perm) -> list[str]:
    """
    The Rothe diagram of w row by row as flags, "0" at each of its boxes
    and "1" elsewhere, built column by column as rothe builds its rows:
    row i is "0" exactly at the columns j < w_i that hold no w_k, k < i.

    >>> rothe_flags((2, 3, 1))
    ['011', '011', '111']
    """
    n = len(w)
    columns = "0" * n
    rows = []
    for c in w:
        west = columns[:c - 1]
        rows.append(west + "1" * (n - c + 1))
        columns = west + "1" + columns[c:]
    return rows


def rothe_diagram(w: Perm) -> frozenset[Box]:
    """Boxes (i, j) with j < w_i and j appearing in w after position i."""
    inv = inverse(w)
    return frozenset(
        (i, j) for i, v in enumerate(w, start=1) for j in range(1, v) if i < inv[j - 1]
    )


def validate(p: BumplessPipedream) -> Perm:
    """
    Check tile kinds, edge consistency against neighbors and the boundary,
    and the no-double-crossing condition; return the traced permutation.
    The first fault in row-major order is raised as a ValueError, an
    unknown tile anywhere before any edge fault.

    The edges are compared over whole row strings: the flags of every
    box's south edge against those of the north edge of the box below,
    every east edge against the west edge of the box to its right, and
    the boundary rows and columns.  Only when a comparison fails are the
    boxes scanned one by one in row-major order, to name the first fault.

    Equal grids share one trace: rows never change, so a traced grid's
    permutation is kept in a weak map keyed by the grid, and any grid with
    the same n and rows reads it there.  The entry goes with the grid
    that stored it: an equal grid still alive after that one has died is
    traced again.  A grid that fails is never stored and raises again on
    every call.

    The entry also holds the droop that made the grid, written by droop
    once all of its checks have passed (see reverse_droop).
    """
    return _entry(p)[0]


def _entry(p: BumplessPipedream) -> list:
    """The entry of p in _TRACED, traced and stored first if it has none."""
    entry = _TRACED.get(p)
    if entry is None:
        entry = _TRACED[p] = [_trace(p), None]
    return entry


def _trace(p: BumplessPipedream) -> Perm:
    """The checks and the trace behind validate, over the row strings."""
    n, rows = p.n, p.rows
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"grid is not {n}x{n}")
    for i, row in enumerate(rows, start=1):
        if not _KINDS.issuperset(row):
            j, t = next((j, t) for j, t in enumerate(row, start=1) if t not in _KINDS)
            raise ValueError(f"unknown tile {t!r} at ({i},{j})")
    # Box (i, j) sits at index (i - 1) * (n + 1) + j of grid, so the box
    # below it is n + 1 further on.
    grid = "\n".join(("", *rows, ""))
    north, south, east, west = (grid.translate(flags) for flags in _FLAGS)
    step = n + 1
    if (
        "1" in north[:step]
        or "0" in south[-step:-1]
        or south[:-step] != north[step:]
        or east[:-1] != west[1:]
    ):
        _raise_edge_fault(n, rows)
    # Bottom row up: column[j] carries the pipe heading north out of the
    # row below in column j + 1.  With its edges consistent a row reads
    # SE elbow, NW elbow, ..., SE elbow from west to east, ignoring other
    # tiles: each NW elbow turns north the pipe that the SE elbow before
    # it turned east, and the pipe of the last SE elbow exits in that row.
    column = list(range(1, n + 1))
    w = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        j = row.find("r")
        k = row.find("j", j)
        while k >= 0:
            column[k] = column[j]
            j = row.find("r", k)
            k = row.find("j", j)
        w[i] = column[j]
    w = tuple(w)
    crossings = grid.count("+")
    if crossings != length(w):
        raise ValueError(
            f"{crossings} crossings for a permutation of length {length(w)}: "
            "some pair of pipes crosses twice"
        )
    return w


def _raise_edge_fault(n: int, rows: tuple[str, ...]) -> NoReturn:
    """Raise the first edge fault of the grid in row-major order."""
    for i, row in enumerate(rows, start=1):
        below = rows[i] if i < n else ""
        for j, t in enumerate(row, start=1):
            if i == 1 and t in _NORTH:
                raise ValueError(f"pipe leaves the north boundary at ({i},{j})")
            if j == 1 and t in _WEST:
                raise ValueError(f"pipe enters from the west boundary at ({i},{j})")
            south, east = t in _SOUTH, t in _EAST
            if i == n and not south:
                raise ValueError(f"missing south entry at the boundary ({i},{j})")
            if j == n and not east:
                raise ValueError(f"missing east exit at the boundary ({i},{j})")
            if i < n and south != (below[j - 1] in _NORTH):
                raise ValueError(f"dangling vertical edge between ({i},{j}) and ({i + 1},{j})")
            if j < n and east != (row[j] in _WEST):
                raise ValueError(f"dangling horizontal edge between ({i},{j}) and ({i},{j + 1})")
    raise AssertionError("the edge flags show a fault that no box has")


# The droop of the SE elbow at the northwest corner (a, b) of a rectangle
# into the empty box at its southeast corner (c, d): the tile each box on
# the rectangle's rim holds before and after, by the box's role (a corner,
# or a box strictly inside the west, east, north or south side).  Boxes
# inside the rectangle keep their tiles.  A reverse droop is the inverse.
_DROOP = {
    "NW": {"r": "."},
    "SE": {".": "j"},
    "SW": {"|": "r"},
    "NE": {"-": "r"},
    "W": {"|": ".", "+": "-"},
    "E": {".": "|", "-": "+"},
    "N": {"-": ".", "+": "|"},
    "S": {".": "-", "|": "+"},
}
_LIFT = {role: {v: k for k, v in m.items()} for role, m in _DROOP.items()}


def _reroute(
    p: BumplessPipedream,
    northwest: Box,
    southeast: Box,
    maps: dict[str, dict[str, str]],
    fault: str,
) -> BumplessPipedream:
    """
    Apply maps (_DROOP or _LIFT) to the rim of the rectangle with the
    given corners; the first box whose tile has no image raises ValueError.
    """
    (a, b), (c, d) = northwest, southeast
    rim = [(a, b, "NW"), (c, d, "SE"), (c, b, "SW"), (a, d, "NE")]
    for i in range(a + 1, c):
        rim += [(i, b, "W"), (i, d, "E")]
    for j in range(b + 1, d):
        rim += [(a, j, "N"), (c, j, "S")]
    grid = [list(row) for row in p.rows[a - 1:c]]
    for i, j, role in rim:
        row = grid[i - a]
        image = maps[role].get(row[j - 1])
        if image is None:
            raise ValueError(f"{fault} {KIND_NAMES[row[j - 1]]} at {(i, j)}")
        row[j - 1] = image
    return BumplessPipedream(
        p.n, p.rows[:a - 1] + tuple(map("".join, grid)) + p.rows[c:]
    )


def _check_boxes(n: int, *boxes: Box) -> None:
    """Raise ValueError for the first box outside the n x n grid."""
    for i, j in boxes:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"box {(i, j)} is outside the {n}x{n} grid")


def _column(p: BumplessPipedream, j: int, top: int, bottom: int) -> str:
    """The tiles of column j in rows top through bottom, north to south."""
    return "".join(row[j - 1] for row in p.rows[top - 1:bottom])


def _other_elbow(
    p: BumplessPipedream, northwest: Box, southeast: Box, elbows: set[Box]
) -> Box | None:
    """
    The first box of the rectangle with the given corners, in row-major
    order, that holds an elbow and is not one of elbows (boxes of the
    rectangle known to hold elbows); None when there is none.
    """
    (a, b), (c, d) = northwest, southeast
    block = "".join(row[b - 1:d] for row in p.rows[a - 1:c])
    if block.count("r") + block.count("j") == len(elbows):
        return None
    return next(
        (i, j)
        for i in range(a, c + 1)
        for j in range(b, d + 1)
        if (i, j) not in elbows and p.rows[i - 1][j - 1] in "rj"
    )


def droop(p: BumplessPipedream, elbow: Box, target: Box) -> BumplessPipedream:
    """
    Swap the SE elbow at `elbow` with the empty box at `target` (strictly
    southeast of it), rerouting the elbow's pipe from the west column and
    north row of the spanned rectangle to the south row and east column.

    Raises ValueError when a box lies outside the grid or the move is
    illegal: (1) the pipe does not run along the rectangle's west column
    and north row, (2) the rectangle holds a second elbow, (3) the
    rerouted pipe would collide with another pipe or break the grid.

    Once every check has passed, the droop is recorded beside the trace
    of its result: the input's rows (not the input itself, which may then
    die), the elbow and the target.
    """
    _check_boxes(p.n, elbow, target)
    (a, b), (c, d) = elbow, target
    if p.tile(a, b) != "r":
        raise ValueError(f"no SE elbow at {elbow}")
    if p.tile(c, d) != ".":
        raise ValueError(f"target {target} is not an empty box")
    if not (a < c and b < d):
        raise ValueError(f"target {target} is not strictly southeast of {elbow}")
    if not (
        _VERTICAL.issuperset(_column(p, b, a + 1, c))
        and _HORIZONTAL.issuperset(p.rows[a - 1][b:d])
    ):
        raise ValueError(
            "condition (1): the pipe must run along the west column and "
            "north row of the rectangle"
        )
    other = _other_elbow(p, elbow, target, {(a, b)})
    if other is not None:
        raise ValueError(
            f"condition (2): the rectangle contains another elbow at ({other[0]},{other[1]})"
        )
    out = _reroute(p, elbow, target, _DROOP, "condition (3): cannot reroute through")
    try:
        entry = _entry(out)
    except ValueError as exc:
        raise ValueError(f"condition (3): droop result is not a pipedream: {exc}")
    assert entry[0] == validate(p), "droop changed the traced permutation"
    entry[1] = (p.rows, a, b, c, d)
    return out


def reverse_droop(p: BumplessPipedream, nw: Box) -> BumplessPipedream:
    """
    Undo the droop that produced the NW elbow at `nw`: find the SE elbows
    west and north of it, lift the pipe back onto the rectangle's west
    column and north row, and free the target box: droop's rim map,
    inverted.  Raises ValueError when nw lies outside the grid or the
    move is illegal.

    The last check is that drooping the lift again gives p back.  When
    the droop recorded beside p's trace ran from the same corners, that
    droop has already passed every check and returned p, so the check
    reads the record: the lift's rows must equal its input's.  droop is
    a function of the grid's rows and the two corners, so this is the
    same check.  Otherwise the lift is drooped again.
    """
    _check_boxes(p.n, nw)
    m, jm = nw
    if p.tile(m, jm) != "j":
        raise ValueError(f"no NW elbow at {nw}")
    row = p.rows[m - 1]
    y = row.rfind("r", 0, jm - 1) + 1
    if not y or not _HORIZONTAL.issuperset(row[y:jm - 1]):
        raise ValueError(f"no pipe running west from {nw} to an SE elbow")
    column = _column(p, jm, 1, m - 1)
    x = column.rfind("r") + 1
    if not x or not _VERTICAL.issuperset(column[x:]):
        raise ValueError(f"no pipe running north from {nw} to an SE elbow")
    if p.tile(x, y) != ".":
        raise ValueError(f"northwest corner ({x},{y}) is not an empty box")
    other = _other_elbow(p, (x, y), nw, {(m, y), (x, jm), (m, jm)})
    if other is not None:
        raise ValueError(
            f"the rectangle contains another elbow at ({other[0]},{other[1]})"
        )
    out = _reroute(p, (x, y), nw, _LIFT, "cannot lift the pipe through")
    traced = validate(out)
    entry = _entry(p)
    assert traced == entry[0], "reverse droop changed the traced permutation"
    made = entry[1]
    if made is not None and made[1:] == (x, y, m, jm):
        assert made[0] == out.rows, "reverse droop is not a droop inverse"
    else:
        assert droop(out, (x, y), (m, jm)) == p, "reverse droop is not a droop inverse"
    return out


def pivots(w: Perm, box: Box) -> list[Box]:
    """
    The pivots of an empty box (p, w_q) of the Rothe pipedream: the SE
    elbows (i, w_i), i < p, with v t_ip one longer than v = w t_pq, that
    is the transition covers up_pivots(v, p).  Equivalently, the elbows
    strictly northwest of the box whose spanned rectangle holds no other
    elbow.

    Raises ValueError when the box lies outside the grid or is not empty.

    >>> pivots((2, 3, 1, 6, 5, 4), (5, 4))
    [(2, 3), (3, 1)]
    """
    _check_boxes(len(w), box)
    if box not in rothe_diagram(w):
        raise ValueError(f"{box} is not an empty box of the Rothe pipedream")
    p, c = box
    q = inverse(w)[c - 1]
    return [(i, w[i - 1]) for i in up_pivots(apply_transposition(w, p, q), p)]


def max_pivot_box(w: Perm) -> tuple[int, int]:
    """
    The indices (p, q) of the largest empty box (p, w_q) of the Rothe
    pipedream, in row-major order, that has a pivot: some i < p with
    v t_ip one longer than v = w t_pq, so up_pivots(v, p) is not empty.
    Raises ValueError when w is dominant, as then no box has one.

    A box (p, c) of the Rothe diagram has a pivot exactly when some i < p
    has w_i < c: the largest such w_i is one, as no entry between i and p
    lies between it and c.  So from p = n down, with m the least of w_1,
    ..., w_{p-1}, the box is the largest c with m < c < w_p and
    q = w^-1(c) > p.

    >>> max_pivot_box((2, 3, 1, 6, 5, 4))
    (5, 6)
    """
    inv = inverse(w)
    for p in range(len(w), 1, -1):
        least = min(w[:p - 1])
        for c in range(w[p - 1] - 1, least, -1):
            q = inv[c - 1]
            if q > p:
                return p, q
    raise ValueError(f"{w} is dominant: no empty box has a pivot")


def is_eg(p: BumplessPipedream) -> tuple[int, ...] | None:
    """
    The shape of an EG-pipedream: the partition formed when all empty
    boxes are justified against the northwest corner; None otherwise.
    """
    row_counts = []
    for row in p.rows:
        k = len(row) - len(row.lstrip("."))
        if "." in row[k:]:
            return None
        row_counts.append(k)
    while row_counts and row_counts[-1] == 0:
        row_counts.pop()
    if 0 in row_counts or any(
        a < b for a, b in zip(row_counts, row_counts[1:])
    ):
        return None
    return tuple(row_counts)


def eg_row_fills(below: tuple[int, ...], exit: int) -> tuple[int, list[tuple[int, ...]]]:
    """
    The fills of one row of an EG-pipedream, from the labels of the pipes
    entering it from the south (below[j - 1] in column j, 0 for none) and
    the pipe exit that leaves it to the east: the number k of its empty
    boxes, and for each fill the labels of the pipes leaving it north.

    The empty boxes of an EG row are a prefix of it, and a box that no
    pipe enters holds no tile, so the prefix runs up to the first column a
    pipe enters from the south.  Past it, with h the pipe arriving from
    the west and s the one from the south (0 for none), a box holds r or |
    for s alone, j or - for h alone, and + for both when h < s: pipes
    start in increasing order, so two that meet with h > s have crossed
    before.  A box that neither enters would be empty, outside the prefix.
    The exit pipe turns east where it enters and runs to the east end.

    The scan is depth first over one copy of the labels below: an r sets
    its column to 0 and a j writes h there, while every other tile leaves
    the label as it is.  Where a box has two tiles, the scan goes on with
    the first, r or -, and keeps a copy of the row for the second, | or j,
    unless the next box would then hold none.  A copy is scanned after
    every fill of the tile before it, so the fills come in lexicographic
    order of the tiles, r before | and - before j.  A fill stops at its
    first box with no tile.  East of the exit's column h is the exit pipe
    and every label stays, so that part is checked once for all fills.

    The exit turns east in its column e, so no pipe may be carried into
    it, and a carried pipe leaves the row only through a j, in a column
    no pipe enters.  Let z be the last such column west of e.  A branch
    that reaches z carries a pipe there, as its box is not empty, and
    takes the j: a - would carry the pipe on to e.  Every box past z then
    holds |, as an r would carry a pipe to e, so the scan stops at z.
    With no such column past the empty prefix, the row has one fill, |
    up to e and an r there, given without a scan.  Only branches that
    give no fill are cut, so the fills and their order stay those of the
    full scan.

    >>> eg_row_fills((1, 2, 0), 1)
    (0, [(0, 2, 0)])
    """
    for k, s in enumerate(below):
        if s:
            break
    else:
        return len(below), []
    try:
        e = below.index(exit)
    except ValueError:
        return k, []
    for s in below[e + 1:]:
        if 0 < s < exit:
            return k, []
    z = e - 1
    while z >= k and below[z]:
        z -= 1
    if z < k:
        return k, [below[:e] + (0,) + below[e + 1:]]  # | ... | r
    fills = []
    branches = [(k, 0, list(below))]
    while branches:
        j, h, row = branches.pop()
        while j < z:
            s = row[j]
            if not h:
                if row[j + 1]:
                    branches.append((j + 1, 0, row.copy()))  # |
                row[j] = 0  # r
                h = s
            elif not s:
                if row[j + 1]:
                    turn = row.copy()  # j
                    turn[j] = h
                    branches.append((j + 1, 0, turn))
            elif h > s:
                break
            j += 1
        else:
            row[z] = h  # j
            row[e] = 0  # r
            fills.append(tuple(row))
    return k, fills


def count_eg_pipedreams(w: Perm) -> dict[tuple[int, ...], int]:
    """
    The number of EG-pipedreams of w of each shape, sorted by shape,
    counted up the rows from row n by eg_row_fills without listing any.
    The state between two rows is the labels of the pipes crossing it, and
    it carries the number of fills below it of each shape.  No pipe leaves
    an empty box north, so a row's empty prefix is at least as long as
    that of the row below it: the prefixes always form a partition.

    >>> count_eg_pipedreams((2, 1, 4, 3))
    {(1, 1): 1, (2,): 1}
    """
    states = {tuple(range(1, len(w) + 1)): {(): 1}}
    for exit in reversed(w):
        grown: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for below, shapes in states.items():
            k, aboves = eg_row_fills(below, exit)
            if not aboves:
                continue
            if k:
                shapes = {(k, *lam): c for lam, c in shapes.items()}
            for above in aboves:
                counts = grown.get(above)
                if counts is None:
                    # Each dict belongs to one state, and the states below
                    # are dropped once the row is done: the last fill (a
                    # tuple object of its own) takes the dict itself.
                    grown[above] = shapes if above is aboves[-1] else dict(shapes)
                else:
                    for lam, c in shapes.items():
                        counts[lam] = counts.get(lam, 0) + c
        states = grown
    return dict(sorted(states.get((0,) * len(w), {}).items()))


def enumerate_all(w: Perm) -> list[BumplessPipedream]:
    """
    Every bumpless pipedream of w: the closure of the Rothe pipedream
    under droops, sorted by grid for determinism.
    """
    start = rothe(w)
    seen = {start.rows: start}
    frontier = [start]
    while frontier:
        p = frontier.pop()
        empty = p.empty_boxes()
        for elbow in p.se_elbows():
            for target in empty:
                if not (elbow[0] < target[0] and elbow[1] < target[1]):
                    continue
                try:
                    q = droop(p, elbow, target)
                except ValueError:
                    continue
                if q.rows not in seen:
                    seen[q.rows] = q
                    frontier.append(q)
    return [seen[key] for key in sorted(seen)]


def render(p: BumplessPipedream, unicode: bool = False) -> str:
    if not unicode:
        return "\n".join(p.rows)
    return "\n".join(
        "".join(UNICODE_TILES.get(t, t) for t in row) for row in p.rows
    )


def parse(text: str) -> BumplessPipedream:
    """Read a grid in either character set; syntax only, no validation."""
    rows = [line.strip() for line in text.strip().splitlines()]
    rows = tuple(
        "".join(FROM_UNICODE.get(t, t) for t in row) for row in rows if row
    )
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("grid is not square")
    for row in rows:
        for t in row:
            if t not in EDGES:
                raise ValueError(f"unknown tile {t!r}")
    return BumplessPipedream(n, rows)
