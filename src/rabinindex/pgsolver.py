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
from typing import Iterable

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


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PGSolverError(f"input is not valid UTF-8: {exc}") from None
    return text


def parse_pgsolver(text: str | bytes) -> ParityGame:
    """Parse a game description, renumbering sparse node ids densely."""
    records: dict[int, tuple[int, int, list[int], str | None]] = {}
    first_seen: dict[int, int] = {}  # node id -> line where first referenced
    header_done = False
    saw_record = False

    for lineno, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if not header_done and line.startswith("parity"):
            header_done = True
            if not re.fullmatch(r"parity\s+\d+\s*;", line):
                raise PGSolverError("malformed header", lineno)
            continue
        header_done = True
        if not line.endswith(";"):
            raise PGSolverError("record does not end with ';'", lineno)
        match = _RECORD_RE.match(line[:-1].strip())
        if match is None:
            raise PGSolverError(f"malformed record: {line!r}", lineno)
        try:
            node = int(match["id"])
            priority = int(match["priority"])
            owner = int(match["owner"])
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
        succs: list[int] = []
        seen: set[int] = set()
        for part in match["succs"].split(","):
            try:
                w = int(part)
            except ValueError:
                raise PGSolverError("integer too long", lineno) from None
            if w < 0:
                raise PGSolverError(f"negative successor id {w}", lineno)
            if w in seen:
                warnings.warn(
                    f"line {lineno}: node {node} lists successor {w} twice",
                    DuplicateEdgeWarning,
                    stacklevel=2,
                )
                continue
            seen.add(w)
            succs.append(w)
            first_seen.setdefault(w, lineno)
        records[node] = (priority, owner, succs, match["name"])
        first_seen.setdefault(node, lineno)
        saw_record = True

    if not saw_record:
        raise PGSolverError("no node records found")

    for w, lineno in sorted(first_seen.items()):
        if w not in records:
            raise PGSolverError(
                f"node {w} is referenced but never declared, so it has no "
                "successors (totality violation)",
                lineno,
            )

    original_ids = sorted(records)
    dense = {orig: i for i, orig in enumerate(original_ids)}
    renumbered = any(orig != i for i, orig in enumerate(original_ids))

    successors = []
    colors = []
    owners = []
    names: list[str | None] = []
    for orig in original_ids:
        priority, owner, succs, name = records[orig]
        successors.append(tuple(dense[w] for w in succs))
        colors.append(priority)
        owners.append(owner)
        if name is None and renumbered:
            name = str(orig)
        names.append(name)

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
    saw_record = False
    header_done = False

    for lineno, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if not header_done and line.startswith("paritysol"):
            header_done = True
            if not re.fullmatch(r"paritysol\s+\d+\s*;", line):
                raise PGSolverError("malformed solution header", lineno)
            continue
        header_done = True
        if not line.endswith(";"):
            raise PGSolverError("record does not end with ';'", lineno)
        parts = line[:-1].split()
        if len(parts) not in (2, 3):
            raise PGSolverError(f"malformed solution record: {line!r}", lineno)
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise PGSolverError(f"malformed solution record: {line!r}", lineno) from None
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
        saw_record = True

    if not saw_record:
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
