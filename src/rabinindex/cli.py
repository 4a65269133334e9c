"""Command-line front end.

Subcommands cover generation (``gen``), color reduction (``index``),
solving (``solve``), solution checking (``verify``), brute-force oracles
for small games (``equiv``, ``oracle``), the polynomial membership test
(``member``), and the CSV benchmark harness (``bench``).  ``index
--budget`` caps the nodes all queries of an exact run expand together.

Exit codes: 0 success; 2 usage error, including an output path that
cannot be written, a ``gen`` priority of 2^62 or more, a negative
``--budget`` or ``--cap``, and a ``-k`` or ``--runs`` below 1; 3
unreadable or malformed input; 4 search budget exhausted; 5 node cap
exceeded; 6 a requested check did not hold (verification, equivalence,
membership).  Failures print one ``error: <category>: <message>`` line
on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .arena import ParityGame, index
from .cycles import NodeCapExceeded
from .generators import FAMILY_NAMES, RandomConfig, gen_family, gen_random, parse_game_spec
from .oracles import brute_force_rabin_index, equivalence_witness
from .pgsolver import (
    DuplicateEdgeWarning,
    PGSolverError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from .reduction import OracleMode, ReductionAborted, abstract_membership, rabin, static_compress
from .solver import verify_solution, zielonka_solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_CAP = 5
EXIT_CHECK = 6


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int):
        super().__init__(message)
        self.category = category
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("parse", f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError("usage", f"cannot write {path}: {exc}", EXIT_USAGE) from exc


def _load_game(path: str) -> ParityGame:
    """Parse the game at ``path``, printing each parse warning as one
    ``warning: parse: <path>: <message>`` line on stderr."""
    text = _read_text(path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DuplicateEdgeWarning)
            game = parse_pgsolver(text)
    except PGSolverError as exc:
        raise CliError("parse", f"{path}: {exc}", EXIT_PARSE) from exc
    for warning in caught:
        print(f"warning: parse: {path}: {warning.message}", file=sys.stderr)
    return game


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, which ends in a newline, to ``out`` or stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = parse_game_spec([args.kind, *args.params], seed=args.seed)
        game = gen_random(spec) if isinstance(spec, RandomConfig) else gen_family(*spec)
        text = write_pgsolver(game)  # refuses a priority no record holds
    except ValueError as exc:
        raise CliError("usage", str(exc), EXIT_USAGE) from exc
    _emit(text, args.output)
    return EXIT_OK


def _check_at_least(flag: str, value: int | None, low: int) -> None:
    """Refuse a numeric option below ``low`` as a usage error (exit 2)."""
    if value is not None and value < low:
        raise CliError("usage", f"{flag} must be at least {low}, got {value}", EXIT_USAGE)


def _cmd_index(args: argparse.Namespace) -> int:
    _check_at_least("--budget", args.budget, 0)
    game = _load_game(args.file)
    arena = game.arena
    before = index(arena.colors)
    if args.mode == "static":
        reduced = static_compress(arena.colors)
        print(f"index: {before} -> {index(reduced)}")
    else:
        mode = OracleMode(args.mode)
        budget = {} if args.budget is None else {"budget_limit": args.budget}
        try:
            reduced, report = rabin(arena, mode=mode, **budget)
        except ReductionAborted as exc:
            if args.fallback != "alpha":
                raise
            print(f"warning: budget: {exc}; falling back to alpha", file=sys.stderr)
            reduced, report = rabin(arena, mode=OracleMode.ABSTRACT)
        line = f"index: {before} -> {index(reduced)}"
        if report.mode is OracleMode.EXACT:  # alpha's form takes no iterations
            line += f", iterations: {report.iteration_count}"
        print(line)
    if args.output is not None:
        _write_text(args.output, write_pgsolver(game.with_colors(reduced)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    game = _load_game(args.file)
    arena = game.arena
    if args.pre == "static":
        colors = static_compress(arena.colors)
    elif args.pre == "alpha":
        colors, _ = rabin(arena, mode=OracleMode.ABSTRACT)
    else:
        colors = arena.colors
    solution = zielonka_solve(game.with_colors(colors))
    sys.stdout.write(write_solution(solution))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    game = _load_game(args.file)
    text = _read_text(args.solution)
    try:
        solution = parse_solution(text, game)
    except PGSolverError as exc:
        raise CliError("parse", f"{args.solution}: {exc}", EXIT_PARSE) from exc
    result = verify_solution(game, solution)
    if result:
        print("ok")
        return EXIT_OK
    raise CliError("verify", result.reason, EXIT_CHECK)


def _cmd_equiv(args: argparse.Namespace) -> int:
    _check_at_least("--cap", args.cap, 0)
    first = _load_game(args.first)
    second = _load_game(args.second)
    if first.arena.successors != second.arena.successors:
        raise CliError("parse", "games have different edge structure", EXIT_PARSE)
    witness = equivalence_witness(
        first.arena,
        first.arena.colors,
        second.arena.colors,
        relation=args.relation,
        node_cap=args.cap,
    )
    if witness is None:
        print("equivalent")
        return EXIT_OK
    shape = "simple cycle" if args.relation == "simple" else "closed walk through"
    print(f"inequivalent: {shape} {sorted(witness)} separates the colorings")
    return EXIT_CHECK


def _cmd_oracle(args: argparse.Namespace) -> int:
    _check_at_least("--cap", args.cap, 0)
    game = _load_game(args.file)
    value = brute_force_rabin_index(game.arena, node_cap=args.cap)
    print(f"rabin index: {value}")
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    _check_at_least("-k", args.k, 1)
    game = _load_game(args.file)
    if abstract_membership(game, args.k):
        print("yes")
        return EXIT_OK
    print("no")
    return EXIT_CHECK


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import bench_run, rows_to_csv  # the harness loads csv
    _check_at_least("--runs", args.runs, 1)
    text = _read_text(args.spec)
    try:
        rows = bench_run(text, default_runs=args.runs)
    except ValueError as exc:
        raise CliError("parse", str(exc), EXIT_PARSE) from exc
    _emit(rows_to_csv(rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabinindex",
        description="Rabin index toolkit for min-parity games in PGSolver format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a game")
    p_gen.add_argument("kind", choices=FAMILY_NAMES + ("random",))
    p_gen.add_argument("params", nargs="+", help="family parameters or xx/yy/zz/cc")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(handler=_cmd_gen)

    p_index = sub.add_parser("index", help="reduce the coloring of a game")
    p_index.add_argument("file")
    p_index.add_argument("--mode", choices=("static", "alpha", "exact"), default="exact")
    p_index.add_argument("--budget", type=int, default=None)
    p_index.add_argument("--fallback", choices=("alpha",), default=None)
    p_index.add_argument("-o", "--output", default=None)
    p_index.set_defaults(handler=_cmd_index)

    p_solve = sub.add_parser("solve", help="solve a game")
    p_solve.add_argument("file")
    p_solve.add_argument("--pre", choices=("none", "static", "alpha"), default="none")
    p_solve.set_defaults(handler=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a claimed solution")
    p_verify.add_argument("file")
    p_verify.add_argument("solution")
    p_verify.set_defaults(handler=_cmd_verify)

    p_equiv = sub.add_parser("equiv", help="oracle equivalence of two colorings")
    p_equiv.add_argument("first")
    p_equiv.add_argument("second")
    p_equiv.add_argument("--relation", choices=("simple", "alpha"), default="simple")
    p_equiv.add_argument("--cap", type=int, default=None)
    p_equiv.set_defaults(handler=_cmd_equiv)

    p_oracle = sub.add_parser("oracle", help="brute-force oracles for small games")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_oracle_ri = oracle_sub.add_parser("rabin-index", help="exact Rabin index by search")
    p_oracle_ri.add_argument("file")
    p_oracle_ri.add_argument("--cap", type=int, default=None)
    p_oracle_ri.set_defaults(handler=_cmd_oracle)

    p_member = sub.add_parser("member", help="abstract index class membership test")
    p_member.add_argument("file")
    p_member.add_argument("-k", type=int, required=True)
    p_member.set_defaults(handler=_cmd_member)

    p_bench = sub.add_parser("bench", help="run the benchmark harness")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--runs", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code
    except NodeCapExceeded as exc:
        print(f"error: cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ReductionAborted as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
