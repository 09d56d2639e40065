"""Command line front end.

Exit codes: 0 success, 1 I/O error, 2 parse error or guard violation,
3 universality check failed, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import sys
import time

from .game import ParseError, parse_pgsolver, random_game, serialize_pgsolver
from .solver import format_regions, solve, zielonka
from .trees import OrderedTree, enumerate_trees, find_counterexample, leaf_count, universal_tree
from .widths import width_report

VERIFY_N_GUARD = 6
VERIFY_H_GUARD = 3


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _degree(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


def _cmd_solve(args) -> int:
    try:
        with open(args.path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        g = parse_pgsolver(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solve(g)
    sys.stdout.write(
        format_regions(result.regions, result.stats if args.verbose else None)
    )
    if args.oracle:
        if zielonka(g) != result.regions:
            print("error: oracle disagreement", file=sys.stderr)
            return 4
        print("oracle: regions agree")
    return 0


def _cmd_widths(args) -> int:
    table = width_report(_int_list(args.n), _int_list(args.heights))
    try:
        _write(args.out, table.to_csv())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_universal(args) -> int:
    n, h = args.n, args.h
    if n < 1:
        raise ValueError("n must be positive")
    if (n > VERIFY_N_GUARD or h > VERIFY_H_GUARD) and not args.force:
        print(
            f"error: exhaustive check guarded to n <= {VERIFY_N_GUARD}, "
            f"h <= {VERIFY_H_GUARD}; pass --force to override",
            file=sys.stderr,
        )
        return 2
    if args.tree is not None:
        tree = OrderedTree.from_text(args.tree)
        if tree.height != h:
            print(f"error: --tree has height {tree.height}, expected {h}", file=sys.stderr)
            return 2
    else:
        tree = universal_tree(n, h)
    counterexample = find_counterexample(tree, n)
    if counterexample is not None:
        print(f"NOT UNIVERSAL: counterexample {counterexample.to_text()}")
        return 3
    checked = sum(1 for _ in enumerate_trees(h, n))
    print(f"UNIVERSAL (width={leaf_count(tree)}, trees checked={checked})")
    return 0


def _cmd_gen(args) -> int:
    g = random_game(args.n, args.d, _degree(args.degree), seed=args.seed)
    try:
        _write(args.out, serialize_pgsolver(g))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    rows = ["n,d,seed,eta,tree_width,lifts,changes,wall_seconds"]
    for d in _int_list(args.d):
        for i in range(args.games):
            seed = args.seed + i
            g = random_game(args.n, d, _degree(args.degree), seed=seed)
            t0 = time.perf_counter()
            result = solve(g)
            wall = time.perf_counter() - t0
            s = result.stats
            rows.append(
                f"{args.n},{d},{seed},{s.eta},{s.tree_width},"
                f"{s.lifts},{s.changes},{wall:.6g}"
            )
    try:
        _write(args.out, "\n".join(rows) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgtrees",
        description="Parity game solving over compact universal trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a PGSolver-format game file")
    p.add_argument("path")
    p.add_argument("-v", "--verbose", action="store_true", help="print solver stats")
    p.add_argument("--oracle", action="store_true", help="cross-check against zielonka")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("widths", help="emit the width/bound comparison CSV")
    p.add_argument("--n", required=True, help="comma separated n values")
    p.add_argument("--h", dest="heights", required=True, help="comma separated h values")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=_cmd_widths)

    p = sub.add_parser("verify-universal", help="exhaustively verify universality")
    p.add_argument("n", type=int)
    p.add_argument("h", type=int)
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.add_argument("--tree", help="check this tree (debug text) instead of the built one")
    p.set_defaults(func=_cmd_verify_universal)

    p = sub.add_parser("gen", help="generate a seeded random game")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--degree", default="1:3", help="out-degree range lo:hi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the solver on seeded random games")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", default="4,8,16", help="comma separated d values")
    p.add_argument("--games", type=int, default=5, help="games per d value")
    p.add_argument("--degree", default="1:3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # malformed numeric lists, tree texts, or generator parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
