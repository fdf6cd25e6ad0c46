"""
Command line front end.

Every subcommand validates its input before computing, writes results to
stdout and diagnostics to stderr, and produces byte-identical output for
identical invocations.

Exit status: 0 on success, 1 when `verify` finds a disagreement, 2 for
input that cannot be parsed or does not fit the command, 3 for an internal
error (a failed invariant check), which is a bug, and 141 (128 + SIGPIPE)
when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bijection import Step, backward_walk, forward_walk
from .permutations import format_permutation, parse_permutation
from .pipedreams import enumerate_all, parse as parse_pipedream, render
from .polynomials import double_schubert, eg_coeffs, schubert_bjs, weights_sum_to_double_schubert
from .tableaux import eg_insert, format_tableau, parse_tableau
from .trees import eg_tree, ls_tree, mls_tree, render_ascii, to_json
from .words import (
    format_word,
    is_reduced,
    little_map,
    little_map_inverse,
    parse_word,
    word,
)


def format_partition(lam: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def format_coeffs(coeffs: dict[tuple[int, ...], int]) -> str:
    return " ".join(
        f"{format_partition(lam)}:{coeffs[lam]}" for lam in sorted(coeffs, reverse=True)
    )


def cmd_expand(args) -> int:
    w = parse_permutation(args.permutation)
    coeffs = eg_coeffs(w)
    for lam in sorted(coeffs, reverse=True):
        print(f"{format_partition(lam)}: {coeffs[lam]}")
    return 0


def cmd_schubert(args) -> int:
    w = parse_permutation(args.permutation)
    print(double_schubert(w) if args.double else schubert_bjs(w))
    return 0


def cmd_eg_insert(args) -> int:
    letters = parse_word(args.word)
    if not is_reduced(word(letters)):
        raise ValueError(f"word is not reduced: {format_word(letters)}")
    p, q = eg_insert(letters)
    print(f"P: {format_tableau(p)}")
    print(f"Q: {format_tableau(q)}")
    return 0


def cmd_little(args) -> int:
    a = word(parse_word(args.word), args.ambient)
    mapped = (little_map_inverse if args.inverse else little_map)(a, args.k, args.v)
    print(format_word(mapped.letters))
    return 0


def cmd_pipedreams(args) -> int:
    w = parse_permutation(args.permutation)
    if args.eg_only:
        # The EG tree's leaves are the EG-pipedreams of w, one per leaf.
        dreams = sorted((v.pipedream for v in eg_tree(w).leaves()), key=lambda p: p.rows)
    else:
        dreams = enumerate_all(w)
    if args.render:
        print("\n\n".join(render(p, unicode=args.unicode) for p in dreams))
    else:
        for p in dreams:
            print("/".join(p.rows))
    return 0


def cmd_tree(args) -> int:
    w = parse_permutation(args.permutation)
    tree = {"ls": ls_tree, "mls": mls_tree, "eg": eg_tree}[args.kind](w)
    if args.format == "json":
        print(json.dumps(to_json(tree), indent=2))
    else:
        print(render_ascii(tree))
    return 0


def _read_pipedream(text: str):
    """A grid from the argument, or from stdin for "-", with its rows on
    lines of their own or joined by "/" on one line."""
    if text == "-":
        text = sys.stdin.read()
    return parse_pipedream(text.replace("/", "\n"))


def _chain_line(step: Step) -> str:
    return f"{format_word(step.word.letters)}  {format_permutation(step.perm)}"


def cmd_bijection(args) -> int:
    if args.direction == "forward":
        w = parse_permutation(args.permutation)
        walk = forward_walk(parse_tableau(args.tableau), w)
        if args.trace:
            print(f"tau0: {_chain_line(walk[0])}")
            for step in walk[1:]:
                print(f"theta[{step.box[0]},{step.box[1]}]: {_chain_line(step)}")
        result = walk[-1].pipedream
        if args.render:
            print(render(result, unicode=args.unicode))
        else:
            print("/".join(result.rows))
        return 0

    walk = backward_walk(_read_pipedream(args.pipedream))
    if args.trace:
        for step in walk[1:]:
            print(
                f"reverse droop at ({step.box[0]},{step.box[1]}): "
                + "/".join(step.pipedream.rows)
            )
        print(f"tau0: {_chain_line(walk[0])}")
        for step in walk[1:]:
            print(f"theta-inv[{step.box[0]},{step.box[1]}]: {_chain_line(step)}")
        print(f"w(P): {format_word(walk[-1].word.letters)}")
    print(format_tableau(walk[-1].tableau))
    return 0


def cmd_verify(args) -> int:
    w = parse_permutation(args.permutation)
    methods = ["tableaux", "pipedreams", "mls_leaves", "monomial"]
    results = {m: eg_coeffs(w, method=m) for m in methods}
    agree = all(results[m] == results[methods[0]] for m in methods[1:])
    for m in methods:
        print(f"{m + ':':<12} {format_coeffs(results[m])}")
    weights_ok = weights_sum_to_double_schubert(w, enumerate_all(w))
    print(f"weight sum:  {'OK' if weights_ok else 'FAIL'}")
    ok = agree and weights_ok
    print(f"status: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanley",
        description="Stanley symmetric functions, Schubert polynomials, "
        "bumpless pipedreams, transition trees, and the tableau-pipedream "
        "correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="Schur expansion of the Stanley symmetric function")
    p.add_argument("permutation", help='one-line notation, e.g. "231654" or "2,3,1,6,5,4"')
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("schubert", help="Schubert polynomial of a permutation")
    p.add_argument("permutation")
    p.add_argument("--double", action="store_true", help="double Schubert polynomial")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("eg-insert", help="insertion and recording tableaux of a reduced word")
    p.add_argument("word", help='e.g. "(2,3,1,6,4,3,2)" or "2 3 1 6 4 3 2"')
    p.set_defaults(func=cmd_eg_insert)

    p = sub.add_parser("little", help="apply the Little map theta_{k,v} to a reduced word")
    p.add_argument("word")
    p.add_argument("--k", type=int, required=True, help="row index of the map")
    p.add_argument("--v", type=int, required=True, help="value index of the map")
    p.add_argument("--inverse", action="store_true", help="apply the inverse map")
    p.add_argument(
        "--ambient",
        "-n",
        type=int,
        default=None,
        help="ambient size (default: largest letter + 1)",
    )
    p.set_defaults(func=cmd_little)

    p = sub.add_parser("pipedreams", help="enumerate the bumpless pipedreams of a permutation")
    p.add_argument("permutation")
    p.add_argument("--eg-only", action="store_true", help="only EG-pipedreams")
    p.add_argument("--render", action="store_true", help="full grids instead of one-liners")
    p.add_argument("--unicode", action="store_true", help="box-drawing tiles in renders")
    p.set_defaults(func=cmd_pipedreams)

    p = sub.add_parser("tree", help="transition tree of a permutation")
    p.add_argument("permutation")
    p.add_argument("--kind", choices=["ls", "mls", "eg"], required=True)
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("bijection", help="tableau to pipedream and back")
    direction = p.add_subparsers(dest="direction", required=True)
    f = direction.add_parser("forward", help="reduced word tableau to EG-pipedream")
    f.add_argument("permutation")
    f.add_argument("tableau", help='rows separated by "/", e.g. "1,4,5/2/5"')
    f.add_argument("--trace", action="store_true", help="print the word chain")
    f.add_argument("--render", action="store_true", help="full grids instead of one-liners")
    f.add_argument("--unicode", action="store_true", help="box-drawing tiles in renders")
    f.set_defaults(func=cmd_bijection)
    b = direction.add_parser("backward", help="EG-pipedream to reduced word tableau")
    b.add_argument(
        "pipedream",
        help='rows separated by "/", e.g. "r--/|.r/|r+", or "-" to read a grid from stdin',
    )
    b.add_argument("--trace", action="store_true", help="print droops and the word chain")
    b.set_defaults(func=cmd_bijection)

    p = sub.add_parser("verify", help="cross-check every coefficient route for a permutation")
    p.add_argument("permutation")
    p.set_defaults(func=cmd_verify)

    return parser


# Built on the first call to main and reused by every later one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader stopped reading, as `head` does.  Stdout now points at
        # the null device, so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        # A failed invariant or guard is a fault of the program, not the input.
        message = str(exc) or type(exc).__name__
        print(f"internal error (a bug, please report): {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
