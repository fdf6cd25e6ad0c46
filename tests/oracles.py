"""
Slow definition-level routes that the tests compare the library with.

The staircase route computes a Schubert polynomial from the top of S_n
down: walk from w up to the longest element along first ascents, then
apply the divided differences of that walk, last step first, to the
polynomial of the longest element.  That top polynomial is x^delta for
the single form and the product of (x_i - y_j) over i + j <= n for the
double form.

The ascent test calls a word reduced when each letter swaps an ascent of
the window it acts on, so that every letter adds one to the length.

The word steps are a Little bump's two moves on whole Word values:
delete_letter drops one letter, and bump_at bumps one, lowering it or,
at 1, raising every other letter and the ambient size.

The deletion route finds each next letter of a Little bump as the one
other position whose deletion leaves the bumped word reduced.

The word-at-a-time chain is the Little map built from whole Word values:
reducedness as length against inversions, the deletion check as a word
evaluated, one bump_at and one crossing_pairs per bump.  Its inverse
conjugates the forward chain by the word complement (n - a_1, ..., n - a_l)
and rejects a result whose ambient size grew.

The grouped compatible sum computes the Stanley and Schubert polynomials
from the Billey-Jockusch-Stanley definition: every reduced word with every
compatible sequence, the words grouped by their ascents and caps.

The tile route validates a bumpless pipedream box by box through
BumplessPipedream.tile: every kind first, then each box's edges against
its neighbours and the boundary in row-major order, then a walk of each
pipe from the south boundary to its east exit.  The droop and the reverse
droop are checked and carried out the same way, one tile at a time, with
rim maps derived from the edges of each tile and the edges the rerouted
pipe loses and gains, not read from the library's table.

The closure count reads the EG coefficients off a list of bumpless
pipedreams, such as the droop closure enumerate_all: the number of
EG-pipedreams of each shape among them (Lam-Lee-Shimozono).

The column fill lists the fills of one EG row breadth first: every
partial fill is a tuple, grown by one column at a time.

The tableau sum builds the Schur polynomial s_lam(x_1..x_m) from its
definition: one monomial x^T for every semistandard tableau T of shape
lam with entries at most m.

The peel expands a symmetric polynomial on Schur polynomials by
subtracting c s_lam for its leading monomial c x^lam until nothing is
left, then rebuilds the polynomial from every s_lam of the tableau sum.

The tuple-key transition computes the double Schubert polynomial by the
same recursion as the library, multiplying by each root factor x_i - y_j
on SparsePoly terms keyed by exponent tuples instead of packed ints.

The reduced-word counts run down the weak order without listing a word:
a reduced word of w ends in a descent d of w, and the rest is a reduced
word of w s_d.  The same recursion, weighting each word by the product of
its letters, gives Macdonald's sum, which equals l(w)! S_w(1, ..., 1).
The hook-length formula counts the standard Young tableaux of a shape.

The cover search finds the largest pivoted box of the Rothe diagram by
testing each box's transition for a cover, one box at a time.

The pattern tests (containment, vexillary, the Grassmannian shape), the
reverse-complement and the tile replacement are used by the tests alone.

The primitive definitions are the plain forms of the library's small
helpers: the transpose and the column word read off it, the increasing
test comparing entries one index at a time, dominance as a
weakly decreasing Lehmer code computed in full, the boxes of a tile kind
found by testing every character of the grid in row-major order, and the
frozen tableau built on the shape code_partition.
"""

from collections import Counter
from itertools import combinations
from math import factorial, prod

from stanley.permutations import (
    apply_transposition,
    code_partition,
    descents,
    inverse,
    last_descent_step,
    lehmer_code,
    length,
    longest_element,
    multiply_simple,
    reduced_words,
    up_pivots,
)
from stanley.pipedreams import EDGES, KIND_NAMES, BumplessPipedream, is_eg
from stanley.polynomials import SparsePoly, _trim, divided_difference
from stanley.tableaux import is_partition_shape
from stanley.words import (
    Word,
    crossing_pairs,
    evaluate,
    format_word,
    is_reduced,
)


def contains_pattern(w, pattern):
    """Whether some subsequence of w is order-isomorphic to pattern, by
    brute force over subsequences."""
    k = len(pattern)
    rank = tuple(sorted(range(k), key=lambda i: pattern[i]))
    for positions in combinations(range(len(w)), k):
        values = [w[p] for p in positions]
        if sorted(range(k), key=lambda i: values[i]) == list(rank):
            return True
    return False


def is_vexillary(w):
    """2143-avoiding."""
    return not contains_pattern(w, (2, 1, 4, 3))


def grassmannian_shape(w):
    """The partition of a Grassmannian permutation: with descent at d,
    λ_i = w_{d+1-i} - (d+1-i)."""
    ds = descents(w)
    if not ds:
        return ()
    if len(ds) > 1:
        raise ValueError(f"{w} is not Grassmannian")
    d = ds[0]
    return tuple(w[i - 1] - i for i in range(d, 0, -1) if w[i - 1] > i)


def complement(w):
    """The reverse-complement v with v_i = n+1 - w_{n+1-i}; an involution
    preserving length (conjugation by the longest element)."""
    n = len(w)
    return tuple(n + 1 - w[n - i] for i in range(1, n + 1))


def schur_poly_by_tableaux(lam, m):
    """
    polynomials.schur_poly by semistandard tableau enumeration: its
    partition check, zero when lam has more than m rows, then the tableaux
    filled cell by cell in row-major order from an explicit stack, each
    entry at least its left neighbour and greater than the one above it.
    """
    if any(a < b for a, b in zip(lam, lam[1:])) or any(p < 1 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    if len(lam) > m:
        return SparsePoly.zero()
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    starts = [sum(lam[:i]) for i in range(len(lam))]
    counts = Counter()
    stack = [()]
    while stack:
        filling = stack.pop()
        idx = len(filling)
        if idx == len(cells):
            counts[_trim(tuple(map(filling.count, range(1, m + 1))))] += 1
            continue
        i, j = cells[idx]
        lo = filling[idx - 1] if j else 1
        if i:
            lo = max(lo, filling[starts[i - 1] + j] + 1)
        stack.extend(filling + (v,) for v in range(lo, m + 1))
    return SparsePoly._of({(xe, ()): c for xe, c in counts.items()})


def schur_expand_by_peel(f, m):
    """
    polynomials.schur_expand by peeling the lexicographically leading
    monomial: its input checks and errors, then c = the coefficient of
    x^lam, raising on a negative one, and f minus c s_lam, until nothing
    is left.  The reconstruction from every s_lam is asserted.
    """
    if f.has_y():
        raise ValueError("cannot Schur-expand a polynomial with y variables")
    if any(len(xe) > m for xe, _ in f.terms):
        raise ValueError(f"a term uses a variable past x{m}")
    if not f.is_symmetric_x(m):
        raise ValueError(f"not symmetric in x1..x{m}")
    coeffs = {}
    rest = f
    while rest:
        lam = _trim(max(xe + (0,) * (m - len(xe)) for xe, _ in rest.terms))
        assert all(a >= b for a, b in zip(lam, lam[1:])), (
            f"leading exponent {lam} of a symmetric polynomial "
            "must be a partition"
        )
        c = rest.coefficient(lam)
        if c < 0:
            raise ValueError(
                f"negative leftover {c} at {lam}: input is not "
                "Schur-positive or the variable window is too small"
            )
        coeffs[lam] = c
        rest = rest - c * schur_poly_by_tableaux(lam, m)
    total = SparsePoly.zero()
    for lam, c in coeffs.items():
        total += c * schur_poly_by_tableaux(lam, m)
    assert total == f, "Schur reconstruction failed"
    return coeffs


def replace_tiles(p, changes):
    """p with the tile at each box of changes replaced."""
    grid = [list(row) for row in p.rows]
    for (i, j), t in changes.items():
        grid[i - 1][j - 1] = t
    return BumplessPipedream(p.n, tuple("".join(row) for row in grid))


def staircase(n):
    """x^delta = x_1^(n-1) x_2^(n-2) ... x_(n-1)."""
    return SparsePoly.monomial(tuple(range(n - 1, 0, -1)))


def double_staircase(n):
    """The product of (x_i - y_j) over i + j <= n."""
    f = SparsePoly.constant(1)
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            f = f * (SparsePoly.x(i) - SparsePoly.y(j))
    return f


def schubert_by_staircase(w, top):
    """Divided differences carrying top, the polynomial of the longest
    element of S_n, down to w along first ascents."""
    n = len(w)
    chain = []
    v = w
    while v != longest_element(n):
        i = next(i for i in range(1, n) if v[i - 1] < v[i])
        chain.append(i)
        v = multiply_simple(v, i)
    f = top
    for i in reversed(chain):
        f = divided_difference(f, i)
    return f


def pivots_by_rectangle(w, box):
    """The SE elbows (i, w_i) strictly northwest of the empty Rothe box
    whose spanned rectangle holds no other elbow, sorted."""
    bi, bj = box
    out = []
    for i in range(1, bi):
        if w[i - 1] >= bj:
            continue
        if any(
            k != i and w[i - 1] <= w[k - 1] <= bj for k in range(i, bi + 1)
        ):
            continue
        out.append((i, w[i - 1]))
    return sorted(out)


def max_pivot_box_by_pattern(w):
    """(p, q) with p the largest position topping a 132 pattern and q
    indexing the largest value after p that is smaller than w_p; None
    when w avoids 132."""
    n = len(w)
    p = max(
        (
            t
            for t in range(2, n)
            if any(
                w[i - 1] < w[j - 1] < w[t - 1]
                for i in range(1, t)
                for j in range(t + 1, n + 1)
            )
        ),
        default=None,
    )
    if p is None:
        return None
    q = max(
        j
        for j in range(p + 1, n + 1)
        if w[j - 1] < w[p - 1]
        and any(w[i - 1] < w[j - 1] for i in range(1, p))
    )
    # q also indexes the largest value below w_p appearing after p.
    assert w[q - 1] == max(v for v in w[p:] if v < w[p - 1]), (w, p, q)
    return p, q


def max_pivot_box_by_covers(w):
    """(p, q) for the first box (p, w_q) of the Rothe diagram, scanned
    backwards in row-major order, whose transition v = w t_pq has a cover
    up_pivots(v, p); None when no box has one."""
    inv = inverse(w)
    for p in range(len(w), 0, -1):
        for c in range(w[p - 1] - 1, 0, -1):
            q = inv[c - 1]
            if q > p and up_pivots(apply_transposition(w, p, q), p):
                return p, q
    return None


def eg_shape_counts(dreams):
    """The number of EG-pipedreams of each shape among dreams."""
    return dict(Counter(lam for lam in map(is_eg, dreams) if lam is not None))


def eg_row_fills_by_columns(below, exit):
    """The fills of one EG row, as pipedreams.eg_row_fills gives them:
    every partial fill kept as a tuple with its carried pipe h and grown
    by one column at a time, the choices of a box in the order r, | and
    -, j."""
    k = next((j for j, s in enumerate(below) if s), len(below))
    fills = [((0,) * k, 0)]
    for s in below[k:]:
        grown = []
        for above, h in fills:
            if not h:
                if s == exit:
                    grown.append((above + (0,), s))
                elif s:
                    grown += [(above + (0,), s), (above + (s,), 0)]
            elif not s:
                grown.append((above + (0,), h))
                if h != exit:
                    grown.append((above + (h,), 0))
            elif h < s and s != exit:
                grown.append((above + (s,), h))
        fills = grown
    return k, [above for above, h in fills if h == exit]


def validate_by_tiles(p):
    """The permutation a bumpless pipedream traces, or the ValueError
    naming its first fault; the checks of pipedreams.validate, one tile
    lookup at a time."""
    n = p.n
    if len(p.rows) != n or any(len(row) != n for row in p.rows):
        raise ValueError(f"grid is not {n}x{n}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = p.tile(i, j)
            if t not in EDGES:
                raise ValueError(f"unknown tile {t!r} at ({i},{j})")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            edges = EDGES[p.tile(i, j)]
            if i == 1 and "N" in edges:
                raise ValueError(f"pipe leaves the north boundary at ({i},{j})")
            if j == 1 and "W" in edges:
                raise ValueError(f"pipe enters from the west boundary at ({i},{j})")
            if i == n and "S" not in edges:
                raise ValueError(f"missing south entry at the boundary ({i},{j})")
            if j == n and "E" not in edges:
                raise ValueError(f"missing east exit at the boundary ({i},{j})")
            if i < n and ("S" in edges) != ("N" in EDGES[p.tile(i + 1, j)]):
                raise ValueError(f"dangling vertical edge between ({i},{j}) and ({i + 1},{j})")
            if j < n and ("E" in edges) != ("W" in EDGES[p.tile(i, j + 1)]):
                raise ValueError(f"dangling horizontal edge between ({i},{j}) and ({i},{j + 1})")
    exit_row_of_pipe = [0] * (n + 1)
    for c in range(1, n + 1):
        i, j, heading = n, c, "N"
        while True:
            t = p.tile(i, j)
            if heading == "N":
                heading = "E" if t == "r" else "N"
            else:
                heading = "N" if t == "j" else "E"
            if heading == "E" and j == n:
                exit_row_of_pipe[c] = i
                break
            i, j = (i - 1, j) if heading == "N" else (i, j + 1)
    perm = [0] * n
    for pipe in range(1, n + 1):
        perm[exit_row_of_pipe[pipe] - 1] = pipe
    w = tuple(perm)
    crossings = sum(row.count("+") for row in p.rows)
    if crossings != length(w):
        raise ValueError(
            f"{crossings} crossings for a permutation of length {length(w)}: "
            "some pair of pipes crosses twice"
        )
    return w


def check_boxes_by_tiles(p, *boxes):
    """The ValueError for the first box outside the grid of p."""
    for box in boxes:
        if not all(1 <= x <= p.n for x in box):
            raise ValueError(f"box {box} is outside the {p.n}x{p.n} grid")


# The edges the rerouted pipe of a droop loses and gains at each role on
# the rim of its rectangle: a corner, or a box strictly inside a side.
REROUTED_EDGES = {
    "NW": ("SE", ""),
    "SE": ("", "WN"),
    "SW": ("N", "E"),
    "NE": ("W", "S"),
    "W": ("NS", ""),
    "E": ("", "NS"),
    "N": ("WE", ""),
    "S": ("", "WE"),
}
# A corner holds the rerouted pipe alone.  The pipe enters the rectangle
# from the south at its SW corner and leaves it to the east at its NE
# corner, before the droop and after; those edges it keeps.
CORNER_KEEPS = {"NW": "", "SE": "", "SW": "S", "NE": "E"}


def droop_rim_maps():
    """The tile each rim box of a droop holds after it, by role and by the
    tile before, derived from EDGES: a side box may hold any tile with
    every edge the pipe loses and none it gains, as a crossing pipe keeps
    its own edges; a corner holds exactly the edges the pipe loses and
    keeps."""
    tile_of = {edges: t for t, edges in EDGES.items()}
    maps = {}
    for role, (lost, gained) in REROUTED_EDGES.items():
        lost, gained = frozenset(lost), frozenset(gained)
        if role in CORNER_KEEPS:
            before = [tile_of[lost | frozenset(CORNER_KEEPS[role])]]
        else:
            before = [t for t, edges in EDGES.items() if lost <= edges and not edges & gained]
        maps[role] = {t: tile_of[(EDGES[t] - lost) | gained] for t in before}
    return maps


DROOP_MAPS = droop_rim_maps()
LIFT_MAPS = {role: {v: k for k, v in m.items()} for role, m in DROOP_MAPS.items()}


def reroute_by_tiles(p, northwest, southeast, maps, fault):
    """The rim of the rectangle with the given corners mapped box by box,
    corners first, then the west and east sides, then the north and south."""
    (a, b), (c, d) = northwest, southeast
    rim = [((a, b), "NW"), ((c, d), "SE"), ((c, b), "SW"), ((a, d), "NE")]
    for i in range(a + 1, c):
        rim += [((i, b), "W"), ((i, d), "E")]
    for j in range(b + 1, d):
        rim += [((a, j), "N"), ((c, j), "S")]
    changes = {}
    for box, role in rim:
        tile = p.tile(*box)
        if tile not in maps[role]:
            raise ValueError(f"{fault} {KIND_NAMES[tile]} at {box}")
        changes[box] = maps[role][tile]
    return replace_tiles(p, changes)


def droop_by_tiles(p, elbow, target):
    """pipedreams.droop with every condition read one tile at a time."""
    check_boxes_by_tiles(p, elbow, target)
    (a, b), (c, d) = elbow, target
    if p.tile(a, b) != "r":
        raise ValueError(f"no SE elbow at {elbow}")
    if p.tile(c, d) != ".":
        raise ValueError(f"target {target} is not an empty box")
    if not (a < c and b < d):
        raise ValueError(f"target {target} is not strictly southeast of {elbow}")
    if any(p.tile(i, b) not in "|+" for i in range(a + 1, c + 1)) or any(
        p.tile(a, j) not in "-+" for j in range(b + 1, d + 1)
    ):
        raise ValueError(
            "condition (1): the pipe must run along the west column and "
            "north row of the rectangle"
        )
    for i in range(a, c + 1):
        for j in range(b, d + 1):
            if (i, j) != (a, b) and p.tile(i, j) in "rj":
                raise ValueError(
                    f"condition (2): the rectangle contains another elbow at ({i},{j})"
                )
    out = reroute_by_tiles(p, elbow, target, DROOP_MAPS, "condition (3): cannot reroute through")
    try:
        traced = validate_by_tiles(out)
    except ValueError as exc:
        raise ValueError(f"condition (3): droop result is not a pipedream: {exc}")
    assert traced == validate_by_tiles(p), "droop changed the traced permutation"
    return out


def reverse_droop_by_tiles(p, nw):
    """pipedreams.reverse_droop with every condition read one tile at a time."""
    check_boxes_by_tiles(p, nw)
    m, jm = nw
    if p.tile(m, jm) != "j":
        raise ValueError(f"no NW elbow at {nw}")
    y = next((j for j in range(jm - 1, 0, -1) if p.tile(m, j) == "r"), None)
    if y is None or any(p.tile(m, j) not in "-+" for j in range(y + 1, jm)):
        raise ValueError(f"no pipe running west from {nw} to an SE elbow")
    x = next((i for i in range(m - 1, 0, -1) if p.tile(i, jm) == "r"), None)
    if x is None or any(p.tile(i, jm) not in "|+" for i in range(x + 1, m)):
        raise ValueError(f"no pipe running north from {nw} to an SE elbow")
    if p.tile(x, y) != ".":
        raise ValueError(f"northwest corner ({x},{y}) is not an empty box")
    for i in range(x, m + 1):
        for j in range(y, jm + 1):
            if (i, j) not in ((m, y), (x, jm), (m, jm)) and p.tile(i, j) in "rj":
                raise ValueError(
                    f"the rectangle contains another elbow at ({i},{j})"
                )
    out = reroute_by_tiles(p, (x, y), nw, LIFT_MAPS, "cannot lift the pipe through")
    traced = validate_by_tiles(out)
    assert traced == validate_by_tiles(p), "reverse droop changed the traced permutation"
    assert droop_by_tiles(out, (x, y), (m, jm)) == p, "reverse droop is not a droop inverse"
    return out


def is_reduced_by_ascents(a):
    """Whether every letter of a swaps an ascent of the window it acts on,
    checked one letter at a time; every letter must be in range for a.n."""
    window = list(range(1, a.n + 1))
    reduced = True
    for t in a.letters:
        if not 1 <= t < a.n:
            raise ValueError(f"letter {t} out of range for ambient size {a.n}")
        u, v = window[t - 1], window[t]
        reduced = reduced and u < v
        window[t - 1], window[t] = v, u
    return reduced


def delete_letter(a, t):
    """a^(t): the word with the t-th letter removed (t is 1-based)."""
    if not 1 <= t <= len(a.letters):
        raise ValueError(f"deletion index {t} out of range")
    return Word(a.letters[: t - 1] + a.letters[t:], a.n)


def bump_at(a, t):
    """
    a up-arrow t.  Decrement letter t if it exceeds 1; otherwise keep it and
    increment every other letter, growing the ambient size by one.
    """
    if not 1 <= t <= len(a.letters):
        raise ValueError(f"bump index {t} out of range")
    if a.letters[t - 1] > 1:
        letters = list(a.letters)
        letters[t - 1] -= 1
        return Word(tuple(letters), a.n)
    letters = tuple(x if i == t - 1 else x + 1 for i, x in enumerate(a.letters))
    return Word(letters, a.n + 1)


def little_bump_by_deletion(a, t1):
    """The Little bump of the reduced word a at t1, a^(t1) reduced: while
    the bumped word is unreduced, bump the unique letter other than the
    last one bumped whose deletion leaves it reduced."""
    b, t = bump_at(a, t1), t1
    while not is_reduced(b):
        candidates = [
            s
            for s in range(1, len(b.letters) + 1)
            if s != t and is_reduced(delete_letter(b, s))
        ]
        assert len(candidates) == 1, (a.letters, b.letters, candidates)
        t = candidates[0]
        b = bump_at(b, t)
    return b


def complement_word(a):
    """
    a^c = (n - a_1, ..., n - a_l); a reduced word of the reverse-complement
    of evaluate(a).
    """
    for t in a.letters:
        if not 1 <= t < a.n:
            raise ValueError(f"letter {t} out of range for ambient size {a.n}")
    return Word(tuple([a.n - x for x in a.letters]), a.n)


def bump_chain_by_words(a, t1):
    """The Little bump of the reduced word a at t1, one Word per bump: while
    the bumped word has a pair of lines crossing twice, bump the other time
    at which the pair just bumped crosses."""
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


def start_time_by_length(a, k, v):
    """The letters of a, its reducedness (length against inversions), k and
    v checked in that order; the one time at which the lines carrying w_k
    and v cross in a."""
    w = evaluate(a)
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
    times = [t for t, pair in enumerate(crossing_pairs(a), start=1) if pair == wanted]
    if len(times) != 1:
        raise ValueError(f"values {wanted} cross {len(times)} times in {a.letters}")
    return times[0]


def little_map_by_words(a, k, v):
    """theta_{k,v}(a), bumped one Word at a time."""
    return bump_chain_by_words(a, start_time_by_length(a, k, v))


def little_map_inverse_by_complement(a, k, v):
    """theta_{k,v}^{-1}(a) = (theta_{n+1-k, n+1-v}(a^c))^c: the forward
    chain run on a^c from the time found on a; ValueError when it grows the
    ambient size."""
    t1 = start_time_by_length(a, k, v)
    out = bump_chain_by_words(complement_word(a), t1)
    if out.n != a.n:
        raise ValueError(
            f"{format_word(a.letters)} is not in the image of theta_{{{k},{v}}} "
            f"in ambient size {a.n}"
        )
    return complement_word(out)


def is_increasing_by_index(t):
    """Whether t has a partition shape, is strictly increasing along each
    row, and down each column, comparing one index at a time."""
    if not is_partition_shape(t):
        return False
    for row in t:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(t, t[1:]):
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def count_reduced_words(w, memo):
    """The number of reduced words of w, memoised in memo: a reduced word
    of w ends in a descent d, the rest is a word of w s_d."""
    if w not in memo:
        down = descents(w)
        memo[w] = 1 if not down else sum(
            count_reduced_words(multiply_simple(w, d), memo) for d in down
        )
    return memo[w]


def macdonald_sum(w, memo):
    """The sum over the reduced words of w of the product of their letters,
    memoised in memo: a word ending in the descent d adds d times a word
    of w s_d."""
    if w not in memo:
        down = descents(w)
        memo[w] = 1 if not down else sum(
            d * macdonald_sum(multiply_simple(w, d), memo) for d in down
        )
    return memo[w]


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def hook_length_count(lam):
    """f^lam, the number of standard Young tableaux of shape lam, by the
    hook-length formula."""
    cols = conjugate(lam)
    hooks = prod(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return factorial(sum(lam)) // hooks


def add_sequences(out, steps, expo, i, prev, c):
    """
    Add c * x^b to out for every b_i, ..., b_l continuing from b_{i-1} = prev,
    where steps[j] = (rise, cap) asks for b_{j-1} + rise <= b_j <= cap.
    """
    if i == len(steps):
        key = (tuple(expo), ())
        out[key] = out.get(key, 0) + c
        return
    rise, cap = steps[i]
    for b in range(prev + rise, cap + 1):
        expo[b - 1] += 1
        add_sequences(out, steps, expo, i + 1, b, c)
        expo[b - 1] -= 1


def compatible_sum(w, caps):
    """
    The sum of x_{b_1}...x_{b_l} over reduced words a of w and sequences
    1 <= b_1 <= ... <= b_l with b_i <= caps(a)[i], rising strictly
    wherever a rises.  The inner sum depends on a only through its ascents
    and its caps, so it is enumerated once per such pair.
    """
    groups = Counter(
        tuple(zip((False, *(x < y for x, y in zip(a, a[1:]))), caps(a)))
        for a in reduced_words(w)
    )
    out = {}
    for steps, count in groups.items():
        expo = [0] * max((cap for _, cap in steps), default=0)
        add_sequences(out, steps, expo, 0, 1, count)
    return SparsePoly(out)


def _bump(exps, i):
    """exps with its i-th entry raised by one; trimmed when exps is."""
    if i <= len(exps):
        return (*exps[:i - 1], exps[i - 1] + 1, *exps[i:])
    return (*exps, *(0,) * (i - 1 - len(exps)), 1)


def times_root_by_tuples(f, i, j):
    """f * (x_i - y_j), term by term on tuple keys: each term gives one with
    its x_i exponent raised and one, negated, with its y_j exponent raised."""
    out = {}
    for (xe, ye), c in f.terms.items():
        key = (_bump(xe, i), ye)
        out[key] = out.get(key, 0) + c
        key = (xe, _bump(ye, j))
        out[key] = out.get(key, 0) - c
    return SparsePoly(out)


def double_schubert_by_tuples(w, memo):
    """The transition at the last descent on tuple keys, memoised in memo:
    S_w = (x_r - y_{w_s}) S_v + the sum of S_{v t_{ir}} over the pivots i."""
    if w not in memo:
        if not descents(w):
            return SparsePoly.constant(1)
        r, s, v, pivots = last_descent_step(w)
        memo[w] = SparsePoly.sum([
            times_root_by_tuples(double_schubert_by_tuples(v, memo), r, w[s - 1]),
            *(double_schubert_by_tuples(apply_transposition(v, i, r), memo) for i in pivots),
        ])
    return memo[w]


def transpose(t):
    """The tableau whose rows are the columns of t."""
    if not t:
        return ()
    return tuple(
        tuple(row[j] for row in t if len(row) > j) for j in range(len(t[0]))
    )


def column_reading_word_by_transpose(t):
    """The columns of t, each read top to bottom, from the rightmost one
    leftwards, as the rows of its transpose."""
    out = []
    for col in reversed(transpose(t)):
        out.extend(col)
    return tuple(out)


def is_dominant_by_code(w):
    """Whether the whole Lehmer code of w is weakly decreasing."""
    code = lehmer_code(w)
    return all(a >= b for a, b in zip(code, code[1:]))


def boxes_by_scan(p, kind):
    """The boxes of p holding tile kind, testing every character of the
    grid in row-major order."""
    return [
        (i, j)
        for i, row in enumerate(p.rows, start=1)
        for j, t in enumerate(row, start=1)
        if t == kind
    ]


def frozen_tableau_by_code_partition(w):
    """The frozen tableau of a dominant w: i + j - 1 in cell (i, j) of the
    shape code_partition(w); ValueError when w is not dominant."""
    if not is_dominant_by_code(w):
        raise ValueError(f"{w} is not dominant")
    return tuple(
        tuple(i + j - 1 for j in range(1, part + 1))
        for i, part in enumerate(code_partition(w), start=1)
    )
