"""Reader and writer for the PGSolver parity game format.

A game file is an optional header ``parity <maxId>;`` followed by one record
per node::

    <id> <priority> <owner> <successor>,<successor>,... ["<name>"];

Lines starting with ``--`` are comments.  Node ids may be sparse; they are
renumbered densely in declaration order of the sorted ids, with the original
ids preserved in the game's name table.  Solutions use the analogous
``paritysol`` listing with one ``<id> <winner> [<strategy successor>];``
record per node.
"""

from __future__ import annotations

import re
import warnings
from typing import Iterator

from .arena import Arena, ParityGame, Solution

__all__ = [
    "PGSolverError",
    "DuplicateEdgeWarning",
    "parse_pgsolver",
    "write_pgsolver",
    "parse_solution",
    "write_solution",
]

# Anything larger is assumed to be a typo rather than a real priority.
_MAX_PRIORITY = 2**62

_RECORD_RE = re.compile(
    r"^(?P<id>\d+)\s+(?P<priority>-?\d+)\s+(?P<owner>-?\d+)\s+"
    r"(?P<succs>-?\d+(?:\s*,\s*-?\d+)*)"
    r'(?:\s+"(?P<name>[^"]*)")?\s*$'
)


class PGSolverError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class DuplicateEdgeWarning(UserWarning):
    """A node listed the same successor twice; duplicates are dropped."""


def _records(text: str | bytes, header: str, header_error: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, record)`` for each record line, its closing ``;``
    stripped, after skipping comments and blank lines and checking an optional
    leading ``<header> <maxId>;`` line."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PGSolverError(f"input is not valid UTF-8: {exc}") from None
    text = text.removeprefix("\ufeff")  # a byte-order mark is not part of the first line
    header_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if not header_done:
            header_done = True
            if line.startswith(header):
                if not re.fullmatch(header + r"\s+\d+\s*;", line):
                    raise PGSolverError(header_error, lineno)
                continue
        if not line.endswith(";"):
            raise PGSolverError("record does not end with ';'", lineno)
        yield lineno, line[:-1]


def parse_pgsolver(text: str | bytes) -> ParityGame:
    """Parse a game description, renumbering sparse node ids densely."""
    # node id -> (priority, owner, successors, name, line)
    records: dict[int, tuple[int, int, list[int], str | None, int]] = {}
    referenced: set[int] = set()
    for lineno, record in _records(text, "parity", "malformed header"):
        match = _RECORD_RE.match(record)
        if match is None:
            raise PGSolverError(f"malformed record: {record!r}", lineno)
        try:
            node = int(match["id"])
            priority = int(match["priority"])
            owner = int(match["owner"])
            succs = list(map(int, match["succs"].split(",")))
        except ValueError:  # more digits than int() accepts
            raise PGSolverError("integer too long", lineno) from None
        if priority < 0:
            raise PGSolverError(f"negative priority {priority}", lineno)
        if priority >= _MAX_PRIORITY:
            raise PGSolverError(f"priority {priority} out of range", lineno)
        if owner not in (0, 1):
            raise PGSolverError(f"owner must be 0 or 1, got {owner}", lineno)
        if node in records:
            raise PGSolverError(f"node {node} declared twice", lineno)
        if min(succs) < 0:
            raise PGSolverError(f"negative successor id {min(succs)}", lineno)
        unique = set(succs)
        if len(unique) < len(succs):
            seen: set[int] = set()
            for w in succs:
                if w in seen:
                    warnings.warn(
                        f"line {lineno}: node {node} lists successor {w} twice",
                        DuplicateEdgeWarning,
                        stacklevel=2,
                    )
                seen.add(w)
            succs = list(dict.fromkeys(succs))
        records[node] = (priority, owner, succs, match["name"], lineno)
        referenced |= unique

    if not records:
        raise PGSolverError("no node records found")
    undeclared = referenced.difference(records)
    if undeclared:
        w = min(undeclared)
        first = next(rec[4] for rec in records.values() if w in rec[2])
        raise PGSolverError(
            f"node {w} is referenced but never declared, so it has no "
            "successors (totality violation)",
            first,
        )

    original_ids = sorted(records)
    renumbered = original_ids[-1] != len(original_ids) - 1
    dense = {orig: i for i, orig in enumerate(original_ids)}.__getitem__
    successors, colors, owners, names = [], [], [], []
    for orig in original_ids:
        priority, owner, succs, name, _ = records[orig]
        successors.append(tuple(map(dense, succs)))
        colors.append(priority)
        owners.append(owner)
        names.append(str(orig) if name is None and renumbered else name)
    name_table = tuple(names) if any(n is not None for n in names) else None
    return ParityGame(Arena(tuple(successors), tuple(colors)), tuple(owners), name_table)


def write_pgsolver(game: ParityGame) -> str:
    """Serialize a game; ``parse_pgsolver`` inverts this exactly."""
    lines = [f"parity {game.node_count - 1};"]
    for v in range(game.node_count):
        succs = ",".join(str(w) for w in game.arena.successors[v])
        name = ""
        if game.names is not None and game.names[v] is not None:
            name = f' "{game.names[v]}"'
        lines.append(f"{v} {game.arena.colors[v]} {game.owners[v]} {succs}{name};")
    return "\n".join(lines) + "\n"


def parse_solution(text: str | bytes, game: ParityGame) -> Solution:
    """Parse a ``paritysol`` listing against the game it solves."""
    winner: dict[int, int] = {}
    strategy: dict[int, int] = {}
    n = game.node_count
    for lineno, record in _records(text, "paritysol", "malformed solution header"):
        try:
            values = list(map(int, record.split()))
        except ValueError:
            values = []
        if len(values) not in (2, 3):
            raise PGSolverError(f"malformed solution record: {record!r}", lineno)
        v, win = values[0], values[1]
        if not 0 <= v < n:
            raise PGSolverError(f"node {v} out of range", lineno)
        if win not in (0, 1):
            raise PGSolverError(f"winner must be 0 or 1, got {win}", lineno)
        if v in winner:
            raise PGSolverError(f"node {v} listed twice", lineno)
        winner[v] = win
        if len(values) == 3:
            strategy[v] = values[2]

    if not winner:
        raise PGSolverError("no solution records found")
    missing = [v for v in range(n) if v not in winner]
    if missing:
        raise PGSolverError(f"solution does not label node {missing[0]}")

    strategy0: dict[int, int] = {}
    strategy1: dict[int, int] = {}
    for v, w in strategy.items():
        if not 0 <= w < n:
            raise PGSolverError(f"strategy successor {w} of node {v} out of range")
        (strategy0 if game.owners[v] == 0 else strategy1)[v] = w
    return Solution(tuple(winner[v] for v in range(n)), strategy0, strategy1)


def write_solution(solution: Solution) -> str:
    n = len(solution.winner)
    merged = dict(solution.strategy1)
    merged.update(solution.strategy0)
    lines = [f"paritysol {n - 1};"]
    for v in range(n):
        edge = f" {merged[v]}" if v in merged else ""
        lines.append(f"{v} {solution.winner[v]}{edge};")
    return "\n".join(lines) + "\n"
