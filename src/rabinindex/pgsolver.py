"""Reader and writer for the PGSolver parity game format.

A game file is an optional header ``parity <maxId>;`` followed by one record
per node::

    <id> <priority> <owner> <successor>,<successor>,... ["<name>"];

Lines starting with ``--`` are comments.  Node ids may be sparse; they are
renumbered densely in declaration order of the sorted ids, with the original
ids preserved in the game's name table.  Solutions use the analogous
``paritysol`` listing with one ``<id> <winner> [<strategy successor>];``
record per node.

Parsing runs in two stages.  A whole-text pass matches every record line
at once against a strict subset of the grammar (ASCII digits, no signs,
owner and winner ``0`` or ``1``, no blank around a comma; no repeated id or
successor, every successor spelled as its id, a solution's records
``0..n-1`` in order) and builds the result without a second round of
checks.  Any input it does not take in full goes, unchanged, to the
per-line parser, which is the one definition of the format: it accepts
every spelling the grammar allows and raises every error, with its line,
and every :class:`DuplicateEdgeWarning`.
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

# Whole-text records: strict subsets of the per-line grammar in which no
# match crosses a line break ("[^\S\n]" is a blank other than "\n"), so a
# text of k record lines that yields k matches matched in full.  A name is
# captured with its quotes, so an empty name differs from none.
_GAME_LINE_RE = re.compile(
    r"^([0-9]+)[^\S\n]+([0-9]+)[^\S\n]+([01])[^\S\n]+"
    r"([0-9]+(?:,[0-9]+)*)"
    r'(?:[^\S\n]+("[^"\n]*"))?[^\S\n]*;$',
    re.MULTILINE,
)
_SOLUTION_LINE_RE = re.compile(
    r"^([0-9]+)[^\S\n]+([01])(?:[^\S\n]+([0-9]+))?[^\S\n]*;$", re.MULTILINE
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
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PGSolverError(f"input is not valid UTF-8: {exc}") from None
    return text.removeprefix("\ufeff")  # a byte-order mark is not part of the first line


def _is_valid_header(line: str, header: str) -> bool:
    return re.fullmatch(header + r"\s+\d+\s*;", line) is not None


def _records(text: str | bytes, header: str, header_error: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, record)`` for each record line, its closing ``;``
    stripped, after skipping comments and blank lines and checking an optional
    leading ``<header> <maxId>;`` line."""
    header_done = False
    for lineno, raw in enumerate(_decode(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if not header_done:
            header_done = True
            if line.startswith(header):
                if not _is_valid_header(line, header):
                    raise PGSolverError(header_error, lineno)
                continue
        if not line.endswith(";"):
            raise PGSolverError("record does not end with ';'", lineno)
        yield lineno, line[:-1]


def _record_lines(text: str | bytes, header: str) -> list[str] | None:
    """The record lines of ``text``, stripped, for the whole-text pass: no
    blank line, no comment and no valid header.  None for input that is not
    UTF-8 or whose header is malformed."""
    try:
        text = _decode(text)
    except PGSolverError:
        return None
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[:2] != "--"]
    if lines and lines[0].startswith(header):
        if not _is_valid_header(lines[0], header):
            return None
        del lines[0]
    return lines


def parse_pgsolver(text: str | bytes) -> ParityGame:
    """Parse a game description, renumbering sparse node ids densely.

    Raises :class:`PGSolverError` for malformed input and warns with
    :class:`DuplicateEdgeWarning` for each successor a node lists twice.
    """
    return _parse_pgsolver_whole(text) or _parse_pgsolver_by_line(text)


def _parse_pgsolver_whole(text: str | bytes) -> ParityGame | None:
    """The game of ``text`` from one pass over all its records, or None
    where the per-line parser must decide."""
    lines = _record_lines(text, "parity")
    if not lines:
        return None
    records = _GAME_LINE_RE.findall("\n".join(lines))
    if len(records) != len(lines):
        return None
    ids, priorities, owners, succ_lists, quoted = zip(*records)
    try:
        numbers = list(map(int, ids))
        colors = tuple(map(int, priorities))
    except ValueError:  # more digits than int() accepts
        return None
    n = len(numbers)
    in_order = numbers == list(range(n))
    order = range(n) if in_order else sorted(range(n), key=numbers.__getitem__)
    if not in_order and len(set(numbers)) < n:
        return None  # a repeated id
    # A successor is looked up by its text among the ids' texts: an
    # undeclared one, or one spelled unlike its id ("07" for "7"), is
    # missing.  Every mention of a node shares one int object, as in the
    # per-line parser.
    dense = {ids[i]: new for new, i in enumerate(order)}.__getitem__
    try:
        successors = tuple(tuple(map(dense, succ_lists[i].split(","))) for i in order)
    except KeyError:
        return None
    if max(colors) >= _MAX_PRIORITY or any(len(set(s)) < len(s) for s in successors):
        return None
    owners = tuple(map(int, owners))
    if not in_order:
        colors = tuple(colors[i] for i in order)
        owners = tuple(owners[i] for i in order)
    renumbered = numbers[order[-1]] != n - 1
    names = tuple(
        quoted[i][1:-1] if quoted[i] else str(numbers[i]) if renumbered else None
        for i in order
    )
    return ParityGame(Arena._unchecked(successors, colors), owners, names)


def _parse_pgsolver_by_line(text: str | bytes) -> ParityGame:
    """``parse_pgsolver`` one record at a time: the format's definition."""
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
                        stacklevel=3,  # the caller of parse_pgsolver
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
    return ParityGame(Arena(tuple(successors), tuple(colors)), tuple(owners), tuple(names))


def write_pgsolver(game: ParityGame) -> str:
    """Serialize a game; ``parse_pgsolver`` inverts this exactly.

    Raises :class:`ValueError` for a name that a record cannot hold: one
    with a ``"`` or a line break.
    """
    lines = [f"parity {game.node_count - 1};"]
    for v in range(game.node_count):
        succs = ",".join(str(w) for w in game.arena.successors[v])
        name = ""
        if game.names is not None and game.names[v] is not None:
            name = game.names[v]
            # The appended character keeps a trailing line break splitting.
            if '"' in name or len((name + ".").splitlines()) > 1:
                raise ValueError(f"node {v}: name {name!r} holds a '\"' or a line break")
            name = f' "{name}"'
        lines.append(f"{v} {game.arena.colors[v]} {game.owners[v]} {succs}{name};")
    return "\n".join(lines) + "\n"


def parse_solution(text: str | bytes, game: ParityGame) -> Solution:
    """Parse a ``paritysol`` listing against the game it solves."""
    return _parse_solution_whole(text, game) or _parse_solution_by_line(text, game)


def _parse_solution_whole(text: str | bytes, game: ParityGame) -> Solution | None:
    """The solution of ``text`` from one pass over its records ``0..n-1``,
    listed in order, or None where the per-line parser must decide."""
    n = game.node_count
    lines = _record_lines(text, "paritysol")
    if lines is None or len(lines) != n:
        return None
    records = _SOLUTION_LINE_RE.findall("\n".join(lines))
    if len(records) != n:
        return None
    ids, winners, moves = zip(*records)
    strategies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    try:
        if list(map(int, ids)) != list(range(n)):
            return None
        for v, move, owner in zip(range(n), moves, game.owners):
            if move:
                w = int(move)
                if w >= n:
                    return None
                strategies[owner][v] = w
    except ValueError:  # more digits than int() accepts
        return None
    return Solution(tuple(map(int, winners)), *strategies)


def _parse_solution_by_line(text: str | bytes, game: ParityGame) -> Solution:
    """``parse_solution`` one record at a time: the format's definition."""
    winner: dict[int, int] = {}
    strategy: dict[int, tuple[int, int]] = {}  # node -> (successor, line)
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
            strategy[v] = (values[2], lineno)

    if not winner:
        raise PGSolverError("no solution records found")
    missing = [v for v in range(n) if v not in winner]
    if missing:
        raise PGSolverError(f"solution does not label node {missing[0]}")

    strategy0: dict[int, int] = {}
    strategy1: dict[int, int] = {}
    for v, (w, lineno) in strategy.items():
        if not 0 <= w < n:
            raise PGSolverError(f"strategy successor {w} of node {v} out of range", lineno)
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
