import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from stanley.cli import main
from stanley.permutations import all_permutations, format_permutation
from stanley.pipedreams import enumerate_all, is_eg, parse, render
from stanley.words import little_map_inverse, word


def run(capsys, *argv):
    status = main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def test_expand_231654(capsys):
    status, out, _ = run(capsys, "expand", "231654")
    assert status == 0
    assert out == "(3,2): 1\n(3,1,1): 1\n(2,2,1): 1\n(2,1,1,1): 1\n"


def test_expand_321654(capsys):
    status, out, _ = run(capsys, "expand", "321654")
    assert status == 0
    assert out == (
        "(4,2): 1\n"
        "(4,1,1): 1\n"
        "(3,3): 1\n"
        "(3,2,1): 2\n"
        "(3,1,1,1): 1\n"
        "(2,2,2): 1\n"
        "(2,2,1,1): 1\n"
    )


def test_expand_identity(capsys):
    status, out, _ = run(capsys, "expand", "1")
    assert status == 0
    assert out == "(): 1\n"


def test_schubert(capsys):
    status, out, _ = run(capsys, "schubert", "132")
    assert status == 0
    assert out == "x1 + x2\n"

    status, out, _ = run(capsys, "schubert", "21", "--double")
    assert status == 0
    assert out == "x1 - y1\n"


def test_eg_insert(capsys):
    status, out, _ = run(capsys, "eg-insert", "(2,3,1,6,4,3,2)")
    assert status == 0
    assert out == "P: 1,2,4/2,3/4/6\nQ: 1,2,4/3,5/6/7\n"


def test_eg_insert_rejects_unreduced(capsys):
    status, _, err = run(capsys, "eg-insert", "1,1")
    assert status == 2
    assert "not reduced" in err


def test_little(capsys):
    status, out, _ = run(capsys, "little", "3,1,4,5,2", "--k", "5", "--v", "3")
    assert status == 0
    assert out == "(2,1,3,4,2)\n"


def test_little_inverse_needs_ambient(capsys):
    # The complement conjugation happens in S_6; the default ambient for
    # letters up to 3 would be S_4 and gives a different chain.
    status, out, _ = run(
        capsys, "little", "3,2,1,2,3", "-n", "6", "--k", "2", "--v", "4", "--inverse"
    )
    assert status == 0
    assert out == "(4,3,1,2,3)\n"


def test_little_inverse_outside_the_image_is_a_usage_error(capsys):
    status, out, err = run(
        capsys, "little", "(3,2,3,1,2,3)", "--k", "4", "--v", "2", "-n", "4", "--inverse"
    )
    assert (status, out) == (2, "")
    assert err == "error: (3,2,3,1,2,3) is not in the image of theta_{4,2} in ambient size 4\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("(1,2) --k 5 --v 1 --inverse", "index k=5 out of range for ambient size 3"),
        ("(1,1,2) --k 1 --v 2 --inverse", "word is not reduced: (1, 1, 2)"),
        ("(1,2) --k 2 --v 9 --inverse", "value v=9 out of range for ambient size 3"),
        ("(1,2,1) --k 1 --v 0", "value v=0 out of range for ambient size 3"),
        ("() --k 1 --v 1", "value v=1 equals w_1, so there are no two lines to bump"),
        ("(1,2) --k 2 --v 3 --inverse", "value v=3 equals w_2, so there are no two lines to bump"),
    ],
)
def test_little_errors_name_the_callers_input(capsys, argv, message):
    # The inverse map checks its own word, k and v before conjugating by
    # the complement, so no message names the conjugated input.
    status, out, err = run(capsys, "little", *argv.split(), "-n", "3")
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_little_empty_word_in_ambient_size_zero(capsys):
    status, out, err = run(capsys, "little", "", "--k", "1", "--v", "1", "-n", "0")
    assert (status, out, err) == (2, "", "error: ambient size 0 is below 1\n")


def test_little_inverse_failing_inside_the_backward_walk_exits_3(capsys, monkeypatch):
    # The backward walk only meets words in the image, so the same failure
    # there is a fault of the program.
    def outside_image(a, k, v):
        return little_map_inverse(word((3, 2, 3, 1, 2, 3), 4), 4, 2)

    monkeypatch.setattr("stanley.bijection.little_map_inverse", outside_image)
    status, out, err = run(
        capsys, "bijection", "backward", "...r--/.r-jr-/.|r-+-/r+jrjr/||rjr+/|||r++"
    )
    assert (status, out) == (3, "")
    assert err == (
        "internal error (a bug, please report): inverse Little map failed at "
        "(2, 4): (3,2,3,1,2,3) is not in the image of theta_{4,2} in ambient size 4\n"
    )


def test_pipedreams_eg_only(capsys):
    status, out, _ = run(capsys, "pipedreams", "231654", "--eg-only")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "...r--/.r-jr-/.|r-+-/r+jrjr/||rjr+/|||r++" in lines
    for line in lines:
        assert is_eg(parse(line.replace("/", "\n"))) is not None


def test_pipedreams_eg_only_equals_the_filtered_closure(capsys):
    # --eg-only prints the EG tree's leaves; they must be the EG-pipedreams
    # of the droop closure, grid for grid and in the same order.
    perms = [w for n in range(1, 7) for w in all_permutations(n)]
    for w in perms + [(3, 1, 7, 2, 9, 5, 4, 10, 6, 8)]:
        dreams = [p for p in enumerate_all(w) if is_eg(p) is not None]
        expected = {
            (): "\n".join("/".join(p.rows) for p in dreams),
            ("--render",): "\n\n".join(render(p) for p in dreams),
            ("--render", "--unicode"): "\n\n".join(render(p, unicode=True) for p in dreams),
        }
        for flags, text in expected.items():
            status, out, _ = run(capsys, "pipedreams", format_permutation(w), "--eg-only", *flags)
            assert (status, out) == (0, text + "\n"), (w, flags)


def test_pipedreams_render_unicode(capsys):
    status, out, _ = run(capsys, "pipedreams", "321", "--render", "--unicode")
    assert status == 0
    assert out == "..┌\n.┌┼\n┌┼┼\n"


def test_tree_ascii(capsys):
    status, out, _ = run(capsys, "tree", "231654", "--kind", "ls")
    assert status == 0
    assert out == (
        "231654\n"
        "├─ 241635  p=5 q=6 i=2\n"
        "│  ├─ 251436  p=4 q=6 i=2\n"
        "│  │  ├─ 351246  p=4 q=5 i=1\n"
        "│  │  └─ 253146  p=4 q=5 i=3\n"
        "│  │     └─ 1364257  embedded\n"
        "│  │        └─ 2361457  p=4 q=5 i=1\n"
        "│  └─ 245136  p=4 q=6 i=3\n"
        "│     └─ 342156  p=3 q=5 i=1\n"
        "│        └─ 1453267  embedded\n"
        "│           └─ 2451367  p=4 q=5 i=1\n"
        "└─ 234615  p=5 q=6 i=3\n"
        "   └─ 235416  p=4 q=6 i=3\n"
        "      └─ 1346527  embedded\n"
        "         └─ 2346157  p=5 q=6 i=1\n"
    )


def test_tree_json(capsys):
    status, out, _ = run(capsys, "tree", "231654", "--kind", "mls", "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["kind"] == "mls"
    assert len(data["nodes"]) == 13

    status, out, _ = run(capsys, "tree", "321", "--kind", "eg", "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["nodes"][0]["pipedream"] == "..r\n.r+\nr++"


def test_bijection_forward_trace(capsys):
    status, out, _ = run(
        capsys, "bijection", "forward", "231654", "1,4,5/2/5", "--trace"
    )
    assert status == 0
    assert out == (
        "tau0: (5,4,1,2,5)  231654\n"
        "theta[5,4]: (5,3,1,2,4)  241635\n"
        "theta[4,5]: (4,3,1,2,4)  251436\n"
        "theta[4,3]: (4,3,1,2,3)  253146\n"
        "theta[2,4]: (3,2,1,2,3)  423156\n"
        "...r--/.r-jr-/.|r-+-/r+jrjr/||rjr+/|||r++\n"
    )


def test_bijection_backward_trace(capsys):
    status, out, _ = run(
        capsys,
        "bijection",
        "backward",
        "...r--/.r-jr-/.|r-+-/r+jrjr/||rjr+/|||r++",
        "--trace",
    )
    assert status == 0
    assert out == (
        "reverse droop at (2,4): .r----/.|..r-/.|r-+-/r+jrjr/||rjr+/|||r++\n"
        "reverse droop at (4,3): .r----/.|..r-/r+--+-/||.rjr/||rjr+/|||r++\n"
        "reverse droop at (4,5): .r----/.|.r--/r+-+--/||.|.r/||rjr+/|||r++\n"
        "reverse droop at (5,4): .r----/.|r---/r++---/|||..r/|||.r+/|||r++\n"
        "tau0: (3,2,1,2,3)  423156\n"
        "theta-inv[2,4]: (4,3,1,2,3)  253146\n"
        "theta-inv[4,3]: (4,3,1,2,4)  251436\n"
        "theta-inv[4,5]: (5,3,1,2,4)  241635\n"
        "theta-inv[5,4]: (5,4,1,2,5)  231654\n"
        "w(P): (5,4,1,2,5)\n"
        "1,4,5/2/5\n"
    )


def test_bijection_forward_trace_through_branching_nodes(capsys):
    # 321654 has several children at its root and below, so each step
    # has to pick the one child its word evaluates to.
    status, out, _ = run(
        capsys, "bijection", "forward", "321654", "1,2,4/2,5/4", "--trace"
    )
    assert status == 0
    assert out == (
        "tau0: (4,2,5,1,2,4)  321654\n"
        "theta[5,4]: (3,2,5,1,2,4)  421635\n"
        "theta[4,5]: (3,2,4,1,2,3)  425136\n"
        "theta[3,3]: (3,2,3,1,2,3)  432156\n"
        "...r--/..r+--/.rj|r-/r+-+jr/||rjr+/|||r++\n"
    )


def test_bijection_backward_stdin(capsys, monkeypatch):
    # One row per line, or the one-line form that pipedreams and
    # bijection forward print.
    rows = ("...r--", ".r-jr-", ".|r-+-", "r+jrjr", "||rjr+", "|||r++")
    for grid in ("\n".join(rows) + "\n", "/".join(rows) + "\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(grid))
        status, out, _ = run(capsys, "bijection", "backward", "-")
        assert status == 0
        assert out == "1,4,5/2/5\n"


def test_bijection_forward_rejects_foreign_tableau(capsys):
    status, _, err = run(capsys, "bijection", "forward", "321654", "1,4,5/2/5")
    assert status == 2
    assert err.startswith("error:")


def test_bijection_forward_quotes_an_empty_tableau(capsys):
    assert run(capsys, "bijection", "forward", "21", "") == (
        2,
        "",
        "error: '' is not a reduced word tableau for 21\n",
    )


def test_verify(capsys):
    status, out, _ = run(capsys, "verify", "231654")
    assert status == 0
    assert out == (
        "tableaux:    (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "pipedreams:  (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "mls_leaves:  (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "monomial:    (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )


def test_verify_fails_when_a_pipedream_is_missing(capsys, monkeypatch):
    # The last of the 30 bumpless pipedreams of 231654 is not an
    # EG-pipedream, so the routes still agree and only the weight sum fails.
    listed = []

    def all_but_the_last(w):
        listed[:] = enumerate_all(w)
        return listed[:-1]

    monkeypatch.setattr("stanley.cli.enumerate_all", all_but_the_last)
    status, out, _ = run(capsys, "verify", "231654")
    assert len(listed) == 30 and is_eg(listed[-1]) is None
    assert status == 1
    assert out == (
        "tableaux:    (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "pipedreams:  (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "mls_leaves:  (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "monomial:    (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1\n"
        "weight sum:  FAIL\n"
        "status: FAIL\n"
    )


def test_verify_checks_the_row_count(capsys, monkeypatch):
    # The pipedreams line is the default route of eg_coeffs, the row count,
    # not the droop closure that the weight sum reads.
    monkeypatch.setattr("stanley.polynomials.count_eg_pipedreams", lambda w: {(3, 2): 2})
    status, out, _ = run(capsys, "verify", "231654")
    assert status == 1
    assert out.splitlines()[1:] == [
        "pipedreams:  (3,2):2",
        "mls_leaves:  (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1",
        "monomial:    (3,2):1 (3,1,1):1 (2,2,1):1 (2,1,1,1):1",
        "weight sum:  OK",
        "status: FAIL",
    ]


def test_verify_past_s5(capsys):
    status, out, _ = run(capsys, "verify", "1357246")
    assert status == 0
    assert out == (
        "tableaux:    (3,2,1):1\n"
        "pipedreams:  (3,2,1):1\n"
        "mls_leaves:  (3,2,1):1\n"
        "monomial:    (3,2,1):1\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )

    status, out, _ = run(capsys, "verify", "2143657")
    assert status == 0
    assert out == (
        "tableaux:    (3):1 (2,1):2 (1,1,1):1\n"
        "pipedreams:  (3):1 (2,1):2 (1,1,1):1\n"
        "mls_leaves:  (3):1 (2,1):2 (1,1,1):1\n"
        "monomial:    (3):1 (2,1):2 (1,1,1):1\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )


def test_verify_long_s6_and_s7(capsys):
    # The monomial route of these took 14 s and 57 s while it peeled in
    # length(w) variables instead of len(code_partition(w)).
    status, out, _ = run(capsys, "verify", "436521")
    assert status == 0
    assert out == (
        "tableaux:    (4,2,2,2,1):1 (3,3,2,2,1):1\n"
        "pipedreams:  (4,2,2,2,1):1 (3,3,2,2,1):1\n"
        "mls_leaves:  (4,2,2,2,1):1 (3,3,2,2,1):1\n"
        "monomial:    (4,2,2,2,1):1 (3,3,2,2,1):1\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )

    status, out, _ = run(capsys, "verify", "5432176")
    assert status == 0
    assert out == (
        "tableaux:    (5,3,2,1):1 (4,4,2,1):1 (4,3,3,1):1 (4,3,2,2):1 (4,3,2,1,1):1\n"
        "pipedreams:  (5,3,2,1):1 (4,4,2,1):1 (4,3,3,1):1 (4,3,2,2):1 (4,3,2,1,1):1\n"
        "mls_leaves:  (5,3,2,1):1 (4,4,2,1):1 (4,3,3,1):1 (4,3,2,2):1 (4,3,2,1,1):1\n"
        "monomial:    (5,3,2,1):1 (4,4,2,1):1 (4,3,3,1):1 (4,3,2,2):1 (4,3,2,1,1):1\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )


def test_verify_past_s7(capsys):
    # An element of S8 with 80 bumpless pipedreams and a double Schubert
    # polynomial of 218,763 terms.
    status, out, _ = run(capsys, "verify", "74218365")
    assert status == 0
    shapes = (
        "(6,5,3):1 (6,5,2,1):2 (6,5,1,1,1):1 (6,4,4):1 (6,4,3,1):2 "
        "(6,4,2,2):1 (6,4,2,1,1):1 (6,3,3,2):1 (6,3,3,1,1):1"
    )
    assert out == (
        f"tableaux:    {shapes}\n"
        f"pipedreams:  {shapes}\n"
        f"mls_leaves:  {shapes}\n"
        f"monomial:    {shapes}\n"
        "weight sum:  OK\n"
        "status: OK\n"
    )


def test_verify_long_cycles(capsys):
    # F_w of the cycle (2, 3, ..., n, 1) in its n - 1 variables is the one
    # monomial x1*...*x(n-1).  Summing the alternant over all of S_(n-1)
    # took 20 s and gigabytes from n = 11 on; the walk through the
    # exponents of F_w keeps the identity alone.
    def timeout(signum, frame):
        raise TimeoutError("verify of the cycles did not finish within 3 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        for n in range(10, 14):
            cycle = ",".join(map(str, [*range(2, n + 1), 1]))
            status, out, _ = run(capsys, "verify", cycle)
            assert status == 0
            shape = "(" + ",".join("1" * (n - 1)) + "):1"
            assert out == (
                f"tableaux:    {shape}\n"
                f"pipedreams:  {shape}\n"
                f"mls_leaves:  {shape}\n"
                f"monomial:    {shape}\n"
                "weight sum:  OK\n"
                "status: OK\n"
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_schubert_past_s7(capsys):
    # w0 of S8 has about 4.9e13 reduced words; none is listed.
    status, out, err = run(capsys, "schubert", "87654321")
    assert status == 0
    assert out == "x1^7*x2^6*x3^5*x4^4*x5^3*x6^2*x7\n"
    assert err == ""


def test_parser_is_reused_across_errors(capsys):
    first = run(capsys, "verify", "14325")
    assert first[0] == 0
    status, out, err = run(capsys, "verify", "1,1")
    assert (status, out) == (2, "")
    assert err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    assert run(capsys, "verify", "14325") == first


def test_parse_errors_exit_nonzero(capsys):
    status, _, err = run(capsys, "expand", "not a perm")
    assert status == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("expand", "1,2,"), "cannot parse permutation: '1,2,'"),
        (("bijection", "forward", "1", "1,,2"), "cannot parse tableau: '1,,2'"),
        (("eg-insert", "a"), "cannot parse word: 'a'"),
    ],
)
def test_parse_errors_name_the_input(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_failed_invariant_exits_3(capsys, monkeypatch):
    def broken(letters):
        raise AssertionError("row lost a box")

    monkeypatch.setattr("stanley.cli.eg_insert", broken)
    status, out, err = run(capsys, "eg-insert", "(2,1,2)")
    assert status == 3
    assert out == ""
    assert err == "internal error (a bug, please report): row lost a box\n"


def test_guard_error_exits_3(capsys, monkeypatch):
    def guard(w):
        raise RuntimeError(f"embedding guard exceeded at {w}")

    monkeypatch.setattr("stanley.cli.ls_tree", guard)
    status, _, err = run(capsys, "tree", "1432", "--kind", "ls")
    assert status == 3
    assert err == (
        "internal error (a bug, please report): "
        "embedding guard exceeded at (1, 4, 3, 2)\n"
    )


def test_deterministic_output(capsys):
    first = run(capsys, "tree", "321654", "--kind", "eg", "--format", "json")
    second = run(capsys, "tree", "321654", "--kind", "eg", "--format", "json")
    assert first == second


def subprocess_env():
    # The subprocess imports the package from this checkout's src, however
    # the test run itself found it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stanley", "expand", "1"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "(): 1\n"


def test_closed_stdout_exits_141_quietly():
    # About 104 KB of JSON, more than a pipe holds: after one line is read
    # and the pipe closed, a later write must fail.
    argv = ["tree", "3,1,7,2,10,5,4,9,6,8", "--kind", "eg", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "stanley", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
