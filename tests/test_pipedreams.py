import gc
import random
import weakref
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import stanley.pipedreams

from oracles import (
    DROOP_MAPS,
    LIFT_MAPS,
    boxes_by_scan,
    count_reduced_words,
    droop_by_tiles,
    eg_row_fills_by_columns,
    eg_shape_counts,
    hook_length_count,
    max_pivot_box_by_covers,
    max_pivot_box_by_pattern,
    pivots_by_rectangle,
    reverse_droop_by_tiles,
    validate_by_tiles,
)
from stanley.permutations import (
    all_permutations,
    identity,
    inverse,
    is_dominant,
    length,
    longest_element,
)
from stanley.pipedreams import (
    BumplessPipedream,
    _DROOP,
    _LIFT,
    count_eg_pipedreams,
    droop,
    eg_row_fills,
    enumerate_all,
    is_eg,
    max_pivot_box,
    parse,
    pivots,
    render,
    reverse_droop,
    rothe,
    rothe_diagram,
    rothe_flags,
    validate,
)
from stanley.polynomials import SparsePoly, double_schubert, eg_coeffs, schubert_bjs, weight
from stanley.tableaux import _tableaux_of, shape

perms = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)

W231654 = (2, 3, 1, 6, 5, 4)
W2761453 = (2, 7, 6, 1, 4, 5, 3)

# The pipedream produced by drooping rothe(231654) along the path
# 231654 -> 241635 -> 251436 -> 253146 -> 423156, in tile characters.
CHAIN_RESULT = (
    "...r--",
    ".r-jr-",
    ".|r-+-",
    "r+jrjr",
    "||rjr+",
    "|||r++",
)


def legal_droops(p):
    for elbow in p.se_elbows():
        for target in p.empty_boxes():
            if elbow[0] < target[0] and elbow[1] < target[1]:
                try:
                    yield elbow, target, droop(p, elbow, target)
                except ValueError:
                    pass


def test_rothe_identity():
    for n in (0, 1, 2, 4):
        p = rothe(identity(n))
        assert p.empty_boxes() == []
        assert validate(p) == identity(n)
        assert weight(p) == SparsePoly.constant(1)
        assert is_eg(p) == ()
    assert enumerate_all(identity(3)) == [rothe(identity(3))]


def test_rothe_231654():
    p = rothe(W231654)
    assert render(p) == "\n".join(
        [".r----", ".|r---", "r++---", "|||..r", "|||.r+", "|||r++"]
    )
    assert validate(p) == W231654
    assert set(p.empty_boxes()) == {(1, 1), (2, 1), (4, 4), (4, 5), (5, 4)}
    assert rothe_diagram(W231654) == frozenset(p.empty_boxes())


def test_rothe_2761453():
    assert rothe_diagram(W2761453) == {
        (1, 1), (2, 1), (3, 1), (2, 3), (3, 3), (5, 3), (6, 3),
        (2, 4), (3, 4), (2, 5), (3, 5), (2, 6),
    }


@given(perms)
def test_rothe_properties(w):
    p = rothe(w)
    assert validate(p) == w
    boxes = frozenset(p.empty_boxes())
    assert boxes == rothe_diagram(w)
    assert len(boxes) == length(w)


def _zeros(flags):
    return {
        (i, j)
        for i, row in enumerate(flags, start=1)
        for j, flag in enumerate(row, start=1)
        if flag == "0"
    }


def test_rothe_flags_are_the_rothe_diagram():
    # On all of S1-S6 and 40 seeded elements of S7: "0" exactly at the
    # boxes of the Rothe diagram, which are the empty boxes of rothe(w).
    rng = random.Random(31)
    elements = [w for n in range(1, 7) for w in all_permutations(n)]
    elements += rng.sample(list(all_permutations(7)), 40)
    for w in elements:
        flags = rothe_flags(w)
        assert len(flags) == len(w) and {len(row) for row in flags} <= {len(w)}, w
        assert set("".join(flags)) <= set("01"), w
        assert _zeros(flags) == rothe_diagram(w), w
        assert rothe(w).empty_flags() == flags, w
    # And the empty flags of every bumpless pipedream of S1-S4.
    for n in range(1, 5):
        for w in all_permutations(n):
            for p in enumerate_all(w):
                assert _zeros(p.empty_flags()) == set(p.empty_boxes()), render(p)


def test_boxes_match_the_character_scan():
    # Every bumpless pipedream of S1-S5: the same boxes in the same order.
    dreams = [p for n in range(1, 6) for w in all_permutations(n) for p in enumerate_all(w)]
    assert len(dreams) == 1 + 2 + 7 + 41 + 393
    for p in dreams:
        assert p.empty_boxes() == boxes_by_scan(p, ".")
        assert p.se_elbows() == boxes_by_scan(p, "r")
        assert p.nw_elbows() == boxes_by_scan(p, "j")


def test_validate_errors():
    with pytest.raises(ValueError, match="north boundary"):
        validate(BumplessPipedream(2, ("|r", "r+")))
    with pytest.raises(ValueError, match="west boundary"):
        validate(BumplessPipedream(2, ("-r", "r+")))
    with pytest.raises(ValueError, match="south entry"):
        validate(BumplessPipedream(2, (".r", ".|")))
    with pytest.raises(ValueError, match="dangling horizontal"):
        validate(BumplessPipedream(2, ("rr", "|+")))
    with pytest.raises(ValueError, match="unknown tile"):
        validate(BumplessPipedream(2, ("xr", "r+")))
    # Unknown tiles south and east of a valid tile are named as such.
    with pytest.raises(ValueError, match=r"unknown tile 'x' at \(2,1\)"):
        validate(BumplessPipedream(2, ("r-", "xr")))
    with pytest.raises(ValueError, match=r"unknown tile 'x' at \(1,2\)"):
        validate(BumplessPipedream(2, ("rx", "|r")))
    with pytest.raises(ValueError, match="not 2x2"):
        validate(BumplessPipedream(2, ("r-",)))


def test_validate_rejects_double_crossing():
    # Edge-consistent grid where pipes 3 and 4 cross at (3,2) and again
    # at (2,3); it traces to 1243 but carries three crossings.
    bad = BumplessPipedream(4, ("..r-", ".r+-", "r+jr", "||r+"))
    with pytest.raises(ValueError, match="crosses twice"):
        validate(bad)


def outcome(check, p):
    try:
        return check(p)
    except ValueError as exc:
        return str(exc)


# Every tile kind and three characters that are not tiles, the newline
# among them: validate joins the rows with it after checking the kinds.
SUBSTITUTES = ".rj-|+#x\n"


def substituted(p, changes):
    """p with the tile at each 0-based (i, j) of changes replaced."""
    grid = [list(row) for row in p.rows]
    for (i, j), t in changes:
        grid[i][j] = t
    return BumplessPipedream(p.n, tuple(map("".join, grid)))


def test_validate_matches_tile_oracle():
    # Every single-tile substitution of every pipedream of S1-S4: the same
    # permutation or the same first fault as the tile-by-tile oracle.
    for n in range(1, 5):
        for w in all_permutations(n):
            for p in enumerate_all(w):
                for i in range(n):
                    for j in range(n):
                        for t in SUBSTITUTES:
                            q = substituted(p, [((i, j), t)])
                            assert outcome(validate, q) == outcome(validate_by_tiles, q)
    for w in all_permutations(5):
        for p in enumerate_all(w):
            assert validate(p) == validate_by_tiles(p) == w


def test_validate_matches_tile_oracle_on_two_substitutions():
    # Every two-tile substitution of every pipedream of S1-S3: faults in
    # two rows, and a kind fault after an edge fault in row-major order.
    for n in range(1, 4):
        boxes = [(i, j) for i in range(n) for j in range(n)]
        for w in all_permutations(n):
            for p in enumerate_all(w):
                for first, second in combinations(boxes, 2):
                    for s, t in product(SUBSTITUTES, repeat=2):
                        q = substituted(p, [(first, s), (second, t)])
                        assert outcome(validate, q) == outcome(validate_by_tiles, q)


def test_validate_fresh_copy_agrees():
    # enumerate_all has traced each p; an equal copy would share that
    # trace, so the copy is traced directly.
    for n in range(1, 6):
        for w in all_permutations(n):
            for p in enumerate_all(w):
                copy = BumplessPipedream(p.n, p.rows)
                assert validate(p) == stanley.pipedreams._trace(copy) == w


def test_validate_keeps_nothing_past_the_last_equal_grid(monkeypatch):
    traced = []
    trace = stanley.pipedreams._trace

    def counting(p):
        traced.append((p.n, p.rows))
        return trace(p)

    monkeypatch.setattr(stanley.pipedreams, "_trace", counting)
    gc.collect()
    rows = rothe((2, 5, 1, 7, 4, 3, 6)).rows
    p = BumplessPipedream(7, rows)
    assert validate(p) == validate(BumplessPipedream(7, rows)) == (2, 5, 1, 7, 4, 3, 6)
    assert len(traced) == 1
    del p
    gc.collect()
    assert validate(BumplessPipedream(7, rows)) == (2, 5, 1, 7, 4, 3, 6)
    assert traced == [(7, rows)] * 2


def test_validate_leaves_the_grid_a_plain_value():
    p = rothe((2, 5, 1, 7, 4, 3, 6))
    assert validate(p) == (2, 5, 1, 7, 4, 3, 6)
    assert vars(p) == {"n": p.n, "rows": p.rows}


def test_validate_shares_no_trace_across_sizes():
    p = BumplessPipedream(2, ("r-", "|r"))
    assert validate(p) == (1, 2)
    with pytest.raises(ValueError, match="grid is not 3x3"):
        validate(BumplessPipedream(3, p.rows))


def test_validate_failure_is_not_kept():
    for p in (
        BumplessPipedream(2, ("|r", "r+")),
        BumplessPipedream(2, ("r-", "xr")),
        BumplessPipedream(2, ("r-",)),
        BumplessPipedream(4, ("..r-", ".r+-", "r+jr", "||r+")),
    ):
        with pytest.raises(ValueError) as first:
            validate(p)
        with pytest.raises(ValueError) as second:
            validate(p)
        assert str(second.value) == str(first.value)


def test_droop_fig6():
    p = rothe(W2761453)
    q = droop(p, (1, 2), (3, 4))
    assert set(q.empty_boxes()) == {
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3),
        (5, 3), (6, 3), (2, 5), (3, 5), (2, 6),
    }
    assert q.tile(3, 4) == "j"
    assert validate(q) == W2761453
    assert len(q.nw_elbows()) == len(p.nw_elbows()) + 1


def test_droop_gives_child_diagrams():
    p = rothe(W231654)
    left = droop(p, (2, 3), (5, 4))
    assert frozenset(left.empty_boxes()) == rothe_diagram((2, 4, 1, 6, 3, 5))
    right = droop(p, (3, 1), (5, 4))
    assert frozenset(right.empty_boxes()) == rothe_diagram((2, 3, 4, 6, 1, 5))


def test_droop_errors():
    p = rothe(W231654)
    with pytest.raises(ValueError, match="no SE elbow"):
        droop(p, (1, 1), (4, 4))
    with pytest.raises(ValueError, match="not an empty box"):
        droop(p, (1, 2), (2, 3))
    with pytest.raises(ValueError, match="not strictly southeast"):
        droop(p, (2, 3), (1, 1))
    with pytest.raises(ValueError, match=r"condition \(2\)"):
        droop(p, (1, 2), (4, 4))
    q = droop(rothe(W2761453), (1, 2), (3, 4))
    with pytest.raises(ValueError, match=r"condition \(1\)"):
        droop(q, (1, 4), (3, 5))


def test_droop_reroute_collision():
    # Conditions (1) and (2) rule this out on consistent grids, so the
    # collision check is exercised with a deliberately broken one.
    broken = BumplessPipedream(3, ("r--", "|.|", "|.."))
    with pytest.raises(ValueError, match=r"condition \(3\)"):
        droop(broken, (1, 1), (3, 3))


def test_droop_chain_to_eg_pipedream():
    p = rothe(W231654)
    steps = [
        ((2, 3), (5, 4), (2, 4, 1, 6, 3, 5)),
        ((2, 4), (4, 5), (2, 5, 1, 4, 3, 6)),
        ((3, 1), (4, 3), (2, 5, 3, 1, 4, 6)),
        ((1, 2), (2, 4), (4, 2, 3, 1, 5, 6)),
    ]
    for elbow, target, child in steps:
        p = droop(p, elbow, target)
        assert frozenset(p.empty_boxes()) == rothe_diagram(child)
    assert p.rows == CHAIN_RESULT
    assert validate(p) == W231654
    assert is_eg(p) == (3, 1, 1)
    assert p.nw_elbows() == [(2, 4), (4, 3), (4, 5), (5, 4)]


def test_reverse_droop_chain_reaches_rothe():
    p = BumplessPipedream(6, CHAIN_RESULT)
    consumed = []
    while p.nw_elbows():
        nw = min(p.nw_elbows())
        consumed.append(nw)
        p = reverse_droop(p, nw)
    assert consumed == [(2, 4), (4, 3), (4, 5), (5, 4)]
    assert p == rothe(W231654)


def test_reverse_droop_errors():
    with pytest.raises(ValueError, match="no NW elbow"):
        reverse_droop(rothe(W231654), (4, 4))
    # Pipedreams of S4 and S5 with an NW elbow that cannot be lifted.
    p = BumplessPipedream(4, (".r--", "rjr-", "|rjr", "||r+"))
    with pytest.raises(ValueError, match=r"northwest corner \(2,2\) is not an empty box"):
        reverse_droop(p, (3, 3))
    p = BumplessPipedream(5, ("..r--", ".r+--", "rj|r-", "|rj|r", "||r++"))
    with pytest.raises(ValueError, match=r"another elbow at \(2,2\)"):
        reverse_droop(p, (4, 3))
    # No pipedream of S1-S5 has these faults, so they are exercised with
    # deliberately broken grids, as in test_droop_reroute_collision.
    with pytest.raises(ValueError, match="no pipe running west"):
        reverse_droop(BumplessPipedream(2, ("..", ".j")), (2, 2))
    with pytest.raises(ValueError, match="no pipe running north"):
        reverse_droop(BumplessPipedream(2, ("..", "rj")), (2, 2))
    with pytest.raises(ValueError, match=r"cannot lift the pipe through Vertical at \(2, 1\)"):
        reverse_droop(BumplessPipedream(3, ("..r", "|.|", "r-j")), (3, 3))
    # The rim's west side is read before its north side.
    with pytest.raises(ValueError, match=r"cannot lift the pipe through Vertical at \(2, 1\)"):
        reverse_droop(BumplessPipedream(3, (".-r", "|.|", "r-j")), (3, 3))


def test_reverse_droop_inverts_every_droop():
    for n in range(1, 6):
        for w in all_permutations(n):
            for p in enumerate_all(w):
                for _, target, q in legal_droops(p):
                    assert reverse_droop(q, target) == p


@pytest.fixture
def traced(monkeypatch):
    """A weak map of the test's own behind validate, so that no grid alive
    in another test shares an entry with the test's grids."""
    traced = weakref.WeakKeyDictionary()
    monkeypatch.setattr(stanley.pipedreams, "_TRACED", traced)
    return traced


def test_droop_records_its_input_beside_the_trace(traced):
    p = rothe(W231654)
    q = droop(p, (2, 3), (5, 4))
    assert traced[q] == [validate(p), (p.rows, 2, 3, 5, 4)]
    assert vars(q) == {"n": q.n, "rows": q.rows}


def test_reverse_droop_reads_the_record(traced, monkeypatch):
    # A grid whose droop is recorded is lifted without drooping again; an
    # equal grid traced afresh, with no record, droops the lift again.
    p = rothe(W2761453)
    q = droop(p, (1, 2), (3, 4))
    calls = []
    monkeypatch.setattr(
        stanley.pipedreams, "droop", lambda *args: calls.append(args) or droop(*args)
    )
    assert reverse_droop(q, (3, 4)) == p
    assert calls == []
    rows = q.rows
    del p, q
    gc.collect()
    lifted = reverse_droop(BumplessPipedream(7, rows), (3, 4))
    assert lifted == rothe(W2761453)
    assert calls == [(lifted, (1, 2), (3, 4))]


def test_reverse_droop_rejects_a_record_that_is_not_the_lift(traced):
    q = droop(rothe(W2761453), (1, 2), (3, 4))
    traced[q][1] = (rothe(identity(7)).rows, 1, 2, 3, 4)
    with pytest.raises(AssertionError, match="^reverse droop is not a droop inverse$"):
        reverse_droop(q, (3, 4))


def test_a_droop_record_dies_with_its_grid(traced):
    p = rothe(W231654)
    q = droop(p, (3, 1), (5, 4))
    rows = q.rows
    assert traced[q][1] == (p.rows, 3, 1, 5, 4)
    del q
    gc.collect()
    assert BumplessPipedream(6, rows) not in traced


def move_outcome(move, *args):
    """The rows a move returns, or the type and message of what it raises."""
    try:
        return move(*args).rows
    except Exception as exc:
        return type(exc), str(exc)


def outside_boxes(n):
    return [(0, 0), (0, 1), (1, 0), (-1, -1), (-1, n), (n + 1, 1), (1, n + 1), (n + 1, n + 1)]


def assert_moves_match_tile_oracle(p, elbows, targets, nws):
    for elbow, target in product(elbows, targets):
        assert move_outcome(droop, p, elbow, target) == move_outcome(
            droop_by_tiles, p, elbow, target
        )
    for nw in nws:
        assert move_outcome(reverse_droop, p, nw) == move_outcome(
            reverse_droop_by_tiles, p, nw
        )


def test_tile_oracle_derives_the_droop_tables():
    # The tile oracle builds its rim maps from EDGES and the edges the
    # rerouted pipe loses and gains, so a wrong entry in the library's
    # table fails here and in test_droop_matches_tile_oracle.
    assert DROOP_MAPS == _DROOP
    assert LIFT_MAPS == _LIFT


def test_droop_matches_tile_oracle():
    # droop and reverse_droop read rows and columns as slices; the oracles
    # read one tile at a time.  The same grid or the same exception: every
    # box pair on S1-S4, every SE elbow with every box on S5, every box
    # for the reverse droop on S1-S5, and boxes outside the grid.
    for n in range(1, 6):
        boxes = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        corners, outside = [(1, 1), (n, n)], outside_boxes(n)
        for w in all_permutations(n):
            for p in enumerate_all(w):
                elbows = boxes if n < 5 else p.se_elbows()
                assert_moves_match_tile_oracle(p, elbows, boxes, boxes)
                assert_moves_match_tile_oracle(p, corners, outside, outside)
                assert_moves_match_tile_oracle(p, outside, corners + outside, ())


def test_droop_matches_tile_oracle_on_broken_grids():
    # Every single-tile substitution of every pipedream of S1-S4 reaches
    # the reroute's faults and condition (3), which no pipedream does.
    for n in range(1, 5):
        for w in all_permutations(n):
            for p in enumerate_all(w):
                for i, j, t in product(range(n), range(n), ".rj-|+"):
                    q = substituted(p, [((i, j), t)])
                    assert_moves_match_tile_oracle(
                        q, q.se_elbows(), q.empty_boxes(), q.nw_elbows()
                    )


def test_moves_reject_boxes_outside_the_grid():
    # Refused before any tile is read: reading such a box would raise
    # IndexError, or reach the far side of the grid by negative indexing.
    with pytest.raises(ValueError, match=r"box \(-1, -1\) is outside the 2x2 grid"):
        droop(rothe((2, 1)), (-1, -1), (-1, 3))
    with pytest.raises(ValueError, match=r"box \(0, 0\) is outside the 3x3 grid"):
        droop(rothe((2, 1, 3)), (0, 0), (2, 2))
    with pytest.raises(ValueError, match=r"box \(4, 4\) is outside the 3x3 grid"):
        droop(rothe((2, 1, 3)), (1, 2), (4, 4))
    with pytest.raises(ValueError, match=r"box \(0, 3\) is outside the 3x3 grid"):
        reverse_droop(rothe((2, 1, 3)), (0, 3))
    with pytest.raises(ValueError, match=r"box \(7, 1\) is outside the 6x6 grid"):
        pivots(W231654, (7, 1))
    with pytest.raises(ValueError, match=r"box \(-1, 4\) is outside the 6x6 grid"):
        pivots(W231654, (-1, 4))


def test_pivots():
    assert pivots(W2761453, (3, 1)) == []
    assert pivots(W2761453, (6, 3)) == [(1, 2), (4, 1)]
    assert pivots(W231654, (5, 4)) == [(2, 3), (3, 1)]
    with pytest.raises(ValueError, match="not an empty box"):
        pivots(W231654, (1, 2))


def test_max_pivot_box():
    assert max_pivot_box(W231654) == (5, 6)
    assert max_pivot_box((2, 4, 3, 1)) == (2, 3)
    assert max_pivot_box((6, 4, 5, 9, 7, 8, 3, 2, 1)) == (4, 6)
    with pytest.raises(ValueError, match="dominant"):
        max_pivot_box((3, 4, 2, 1))
    with pytest.raises(ValueError, match="dominant"):
        max_pivot_box(identity(3))


def test_max_pivot_box_matches_geometry():
    # max_pivot_box and pivots read the transition covers; the oracles
    # read the 132 patterns and the rectangles spanned with elbows.
    for n in range(1, 9):
        for w in all_permutations(n):
            if is_dominant(w):
                assert max_pivot_box_by_pattern(w) is None
                with pytest.raises(ValueError, match="dominant"):
                    max_pivot_box(w)
            else:
                assert max_pivot_box(w) == max_pivot_box_by_pattern(w)
    for n in range(1, 7):
        for w in all_permutations(n):
            for box in rothe_diagram(w):
                assert pivots(w, box) == pivots_by_rectangle(w, box)


def test_max_pivot_box_matches_the_cover_search():
    # The direct rule against the box-by-box search for a transition
    # cover, on S1-S7 and on seeded elements of S8-S12.
    rng = random.Random(29)
    groups = [all_permutations(n) for n in range(1, 8)]
    groups += [
        [tuple(rng.sample(range(1, n + 1), n)) for _ in range(300)] for n in range(8, 13)
    ]
    for group in groups:
        for w in group:
            box = max_pivot_box_by_covers(w)
            if box is None:
                with pytest.raises(ValueError, match="dominant"):
                    max_pivot_box(w)
            else:
                assert max_pivot_box(w) == box


def test_weight_sums_to_double_schubert():
    for w in all_permutations(4):
        total = SparsePoly.zero()
        for p in enumerate_all(w):
            total = total + weight(p)
        assert total == double_schubert(w)
        assert total.substitute_y_zero() == schubert_bjs(w)


def test_dominant_has_single_pipedream():
    ps = enumerate_all((3, 4, 2, 1))
    assert ps == [rothe((3, 4, 2, 1))]
    assert weight(ps[0]) == double_schubert((3, 4, 2, 1))


def test_is_eg():
    assert is_eg(rothe((3, 2, 1))) == (2, 1)
    assert is_eg(rothe(W231654)) is None


def test_is_eg_matches_definition():
    # An EG-pipedream's empty boxes form the Young diagram of a partition
    # lam: row i holds the empty boxes (i, 1), ..., (i, lam_i) and no
    # other.  is_eg reads only where the empty boxes are, so every pattern
    # of them on grids up to 4x4 is checked.
    for n in range(1, 5):
        for mask in range(2 ** (n * n)):
            rows = tuple(
                "".join("." if mask >> (i * n + j) & 1 else "+" for j in range(n))
                for i in range(n)
            )
            lam = [row.count(".") for row in rows]
            while lam and lam[-1] == 0:
                lam.pop()
            empty = {
                (i, j)
                for i, row in enumerate(rows, start=1)
                for j, t in enumerate(row, start=1)
                if t == "."
            }
            young = all(a >= b for a, b in zip(lam, lam[1:])) and empty == {
                (i, j) for i, k in enumerate(lam, start=1) for j in range(1, k + 1)
            }
            assert is_eg(BumplessPipedream(n, rows)) == (tuple(lam) if young else None)


def test_enumerate_231654():
    shapes = {}
    for p in enumerate_all(W231654):
        lam = is_eg(p)
        if lam is not None:
            shapes[lam] = shapes.get(lam, 0) + 1
    assert shapes == {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}


def test_enumerate_321654():
    ps = enumerate_all((3, 2, 1, 6, 5, 4))
    assert len(ps) == 30
    shapes = {}
    for p in ps:
        lam = is_eg(p)
        if lam is not None:
            shapes[lam] = shapes.get(lam, 0) + 1
    assert shapes == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }


def test_row_count_matches_the_droop_closure_through_s6():
    # Lam-Lee-Shimozono: the EG-pipedreams among all bumpless pipedreams
    # of w, the droop closure of the Rothe pipedream, give a_lam by shape.
    for n in range(1, 7):
        for w in all_permutations(n):
            assert count_eg_pipedreams(w) == eg_shape_counts(enumerate_all(w)), w


def test_row_count_matches_the_tableaux_through_s7():
    # One weak-order memo serves the whole group: the tableaux of every
    # element of S7 take a tenth of a second, where a fresh memo per
    # element, as eg_coeffs(w, "tableaux") uses, takes about ten.  The row
    # count is sorted by shape, the order of the tableaux route.
    memo = {}
    for n in range(1, 8):
        for w in all_permutations(n):
            tableaux = Counter(map(shape, _tableaux_of(inverse(w), memo)))
            assert list(count_eg_pipedreams(w).items()) == sorted(tableaux.items()), w


_row_rng = random.Random(22)
PAST_S7 = [
    tuple(_row_rng.sample(range(1, n + 1), n))
    for n, count in ((8, 20), (9, 10), (10, 10))
    for _ in range(count)
] + [(2, 10, 12, 5, 8, 11, 7, 4, 9, 3, 1, 6)]


@pytest.mark.parametrize("w", PAST_S7)
def test_row_count_matches_the_tree_leaves_past_s7(w):
    # The last element took the tableaux route 31 s and 1.2 GB.
    assert eg_coeffs(w) == eg_coeffs(w, "mls_leaves")


def test_stanley_count_past_s8_by_the_product_rule():
    # A reduced word of u x v is a shuffle of one of u with one of v
    # shifted up, so #R(w0(6) x w0(6)) = C(30, 15) #R(w0(6))^2, and
    # Stanley's count #R(w) = sum of a_lam f^lam holds there, in S12.
    w0 = longest_element(6)
    words = count_reduced_words(w0, {})
    assert words == 292864
    coeffs = count_eg_pipedreams(w0 + tuple(i + 6 for i in w0))
    assert sum(coeffs.values()) == 26704
    assert sum(a * hook_length_count(lam) for lam, a in coeffs.items()) == comb(30, 15) * words**2


def test_stanley_count_in_s14_by_the_product_rule():
    # The same count on w0(7) x w0(7), in S14: its 1,458,444 EG-pipedreams
    # run the row kernel on about half a million branches.
    w0 = longest_element(7)
    words = count_reduced_words(w0, {})
    assert words == 1100742656
    coeffs = count_eg_pipedreams(w0 + tuple(i + 7 for i in w0))
    assert len(coeffs) == 10873 and sum(coeffs.values()) == 1458444
    assert sum(a * hook_length_count(lam) for lam, a in coeffs.items()) == comb(42, 21) * words**2


def test_row_fills_match_the_column_scan(monkeypatch):
    # The depth-first kernel lists the same fills in the same order as the
    # breadth-first scan over the columns: on every row met while counting
    # S1-S7 and PAST_S7, and on seeded labels with zeros whose exit is
    # absent, blocked by a smaller pipe east of it, or free.  Free rows
    # include some whose last empty column z lies west of the exit with a
    # label between them, and some with no empty column between the
    # empty prefix and the exit, which have one fill and no scan.
    met = set()

    def record(below, exit):
        met.add((below, exit))
        return eg_row_fills(below, exit)

    monkeypatch.setattr(stanley.pipedreams, "eg_row_fills", record)
    for w in [w for n in range(1, 8) for w in all_permutations(n)] + PAST_S7:
        count_eg_pipedreams(w)
    monkeypatch.undo()
    rng = random.Random(26)
    kinds = Counter()
    for _ in range(3000):
        n = rng.randint(0, 9)
        below = tuple(s if rng.random() < 0.7 else 0 for s in rng.sample(range(1, n + 3), n))
        exit = rng.randint(1, n + 3)
        if exit not in below:
            kinds["absent"] += 1
        elif any(0 < s < exit for s in below[below.index(exit):]):
            kinds["blocked"] += 1
        else:
            kinds["free"] += 1
            e = below.index(exit)
            west = below[next(j for j, s in enumerate(below) if s):e]
            if 0 not in west:
                kinds["no empty column"] += 1
            elif below[e - 1]:
                kinds["label past z"] += 1
        met.add((below, exit))
    assert min(kinds["absent"], kinds["blocked"], kinds["free"]) > 400, kinds
    assert kinds["no empty column"] > 300 and kinds["label past z"] > 60, kinds
    for below, exit in met:
        assert eg_row_fills(below, exit) == eg_row_fills_by_columns(below, exit), (below, exit)


def test_row_fills():
    # The rows of rothe(213) = .r- / r+- / ||r, read up from row 3: each
    # leaves north the labels that enter the row above from the south.
    assert eg_row_fills((1, 2, 3), 3) == (0, [(1, 2, 0)])
    assert eg_row_fills((1, 2, 0), 1) == (0, [(0, 2, 0)])
    assert eg_row_fills((0, 2, 0), 2) == (1, [(0, 0, 0)])
    # Two fills, r-+jr and rjrjr: pipe 1 goes north in column 4 or 2, and
    # the last r turns pipe 3 east, out of the row.
    assert eg_row_fills((1, 0, 2, 0, 3), 3) == (0, [(0, 0, 2, 1, 0), (0, 1, 0, 2, 0)])
    # .rj|r: column 3 is the last that no pipe enters west of pipe 3, so
    # pipe 2 turns north there (a - would carry it into pipe 3's column),
    # and pipe 1 goes north past it (an r would carry pipe 1 there).
    assert eg_row_fills((0, 2, 0, 1, 3), 3) == (1, [(0, 0, 2, 1, 0)])
    # .||r: every column between the empty box and pipe 3 has a pipe, so
    # each of those pipes goes straight north, found without a scan.
    assert eg_row_fills((0, 2, 1, 3), 3) == (1, [(0, 2, 1, 0)])
    # A pipe that does not enter the row cannot leave it, and pipe 2
    # cannot cross pipe 1 from the west: they started in the other order.
    assert eg_row_fills((0, 2, 0), 1) == (1, [])
    assert eg_row_fills((2, 1), 2) == (0, [])
    for below, exit in ((0, 2, 0, 1, 3), 3), ((0, 2, 1, 3), 3), ((1, 0, 2, 0, 3), 3):
        assert eg_row_fills(below, exit) == eg_row_fills_by_columns(below, exit)


@given(perms)
@settings(deadline=None)
def test_droop_invariants(w):
    p = rothe(w)
    for _, _, q in legal_droops(p):
        assert validate(q) == w
        assert len(q.empty_boxes()) == length(w)
        assert len(q.nw_elbows()) == 1


def test_render_parse_round_trip():
    p = rothe(W231654)
    assert parse(render(p)) == p
    assert parse(render(p, unicode=True)) == p
    assert render(rothe((2, 1, 3))) == ".r-\nr+-\n||r"
    assert render(rothe((2, 1, 3)), unicode=True) == ".┌─\n┌┼─\n││┌"


def test_parse_errors():
    with pytest.raises(ValueError, match="not square"):
        parse(".r-\nr+-")
    with pytest.raises(ValueError, match="unknown tile"):
        parse("ab\ncd")
