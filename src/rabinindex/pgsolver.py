"""Reader and writer for the PGSolver parity game format.

A game file is an optional header ``parity <maxId>;`` followed by one record
per node::

    <id> <priority> <owner> <successor>,<successor>,... ["<name>"];

Lines starting with ``--`` are comments.  Node ids may be sparse; they are
renumbered densely in declaration order of the sorted ids, with the original
ids preserved in the game's name table.  Solutions use the analogous
``paritysol`` listing with one ``<id> <winner> [<strategy successor>];``
record per node.

Parsing runs in two stages over one scan of the text, which decodes it,
drops blank lines and comments, checks the optional header, and raises
the errors of encoding and header itself.  A whole-text pass takes the
writers' form: the records ``0..n-1`` in order, each id spelled as its
number, one space between fields and none before ``;`` or around a
comma, ASCII digits without sign, owner and winner ``0`` or ``1``, no
repeated successor, and every successor or move spelled as a declared id.
It matches every record line at once and builds the result without a
second round of checks.  Everything else goes, with the same scan, to
the per-line parser, which is the one definition of the record grammar:
it accepts every spelling the grammar allows, renumbers sparse or
unordered ids, and raises every record error, with its line, and every
:class:`DuplicateEdgeWarning`; only it numbers the lines.  Both formats
share one number grammar, and each stage one routine for both formats.
Like every module of the package, this one imports neither
``dataclasses`` nor ``typing``, and it compiles its patterns on first use.
"""

from __future__ import annotations

import re
import warnings
from itertools import compress, count

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

# The patterns are compiled on first use, through the cache of ``re``.  Both
# formats share one number grammar: an id is digits, any other number may
# carry a sign, which the checks accept only on zero.
_NUMBER = r"-?\d+"
_RECORD = (
    rf"^(?P<id>\d+)\s+(?P<priority>{_NUMBER})\s+(?P<owner>{_NUMBER})\s+"
    rf"(?P<succs>{_NUMBER}(?:\s*,\s*{_NUMBER})*)"
    r'(?:\s+"(?P<name>[^"]*)")?\s*$'
)
_SOLUTION_RECORD = rf"^(?P<id>\d+)\s+(?P<winner>{_NUMBER})(?:\s+(?P<move>{_NUMBER}))?\s*$"

# Whole-text records, one per line ("(?m)"), in the form the writers emit:
# ASCII digits, one space between fields, none before ";" or around a
# comma.  Any other spelling goes to the per-line parser.  No match crosses
# a line break, so a text of k record lines that yields k matches matched
# in full.  An empty piece of a successor list ("1,,2", ",1", "1,") is no
# id, so its lookup fails and the text goes to the per-line parser too.  A
# name is captured with its quotes, so an empty name differs from none.
_GAME_LINE = r'(?m)^([0-9]+) ([0-9]+) ([01]) ([0-9,]+)(?: ("[^"\n]*"))?;$'
_SOLUTION_LINE = r"(?m)^([0-9]+) ([01])(?: ([0-9]+))?;$"


class PGSolverError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class DuplicateEdgeWarning(UserWarning):
    """A node listed the same successor twice; duplicates are dropped."""


def _scan(text: str | bytes, header: str, header_error: str) -> tuple[list, list[str]]:
    """Which lines of ``text`` hold records, and the text of those record
    lines: its lines stripped, blank lines and ``--`` comments dropped, and
    an optional leading ``<header> <maxId>;`` line checked and dropped.
    Each record keeps its closing ``;``.  Raises :class:`PGSolverError`
    for input that is not UTF-8 and, with its line, for a malformed header.
    Only :func:`_numbered_records` numbers the record lines, from the mask."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PGSolverError(f"input is not valid UTF-8: {exc}") from None
    # A byte-order mark is not part of the first line.
    stripped = list(map(str.strip, text.removeprefix("\ufeff").splitlines()))
    kept = [line and line[:2] != "--" for line in stripped]
    lines = list(compress(stripped, kept))
    if lines and lines[0].startswith(header):
        first = kept.index(True)
        if re.fullmatch(header + r"\s+\d+\s*;", lines[0]) is None:
            raise PGSolverError(header_error, first + 1)
        kept[first] = False
        del lines[0]
    return kept, lines


def _whole_columns(lines: list[str], line_pattern: str, n: int, bits: int) -> tuple | None:
    """The columns but the id of the record lines ``lines``, from one
    ``findall`` of ``line_pattern``, column ``bits`` (owner or winner) as
    ints, and a lookup from an id's text to its node; None unless they are
    the ``n`` records ``0..n-1`` in the writers' form and order."""
    if not n or len(lines) != n:
        return None
    records = re.findall(line_pattern, "\n".join(lines))
    if len(records) != n:
        return None
    ids, *columns = zip(*records)
    # Each id spelled as its number; a successor or move not spelled as a
    # declared id ("07") is missing.  A node's mentions share one int object.
    if ids != tuple(map(str, range(n))):
        return None
    columns[bits] = tuple(map({"0": 0, "1": 1}.__getitem__, columns[bits]))
    return columns, dict(zip(ids, range(n))).__getitem__


def _numbered_records(scan: tuple, pattern: str, malformed: str):
    """Each record line of ``scan`` with its 1-based line number and the
    match of ``pattern`` on it without its ``;``.  Raises
    :class:`PGSolverError` with the line for a record without a closing
    ``;``, and as ``<malformed>: <record>`` for one ``pattern`` misses."""
    kept, lines = scan
    for lineno, line in zip(compress(count(1), kept), lines):
        if not line.endswith(";"):
            raise PGSolverError("record does not end with ';'", lineno)
        match = re.match(pattern, line[:-1])
        if match is None:
            raise PGSolverError(f"{malformed}: {line[:-1]!r}", lineno)
        yield lineno, match


def parse_pgsolver(text: str | bytes) -> ParityGame:
    """Parse a game description, renumbering sparse node ids densely.

    Raises :class:`PGSolverError` for malformed input and warns with
    :class:`DuplicateEdgeWarning` for each successor a node lists twice.
    """
    scan = _scan(text, "parity", "malformed header")
    return _parse_pgsolver_whole(scan[1]) or _parse_pgsolver_by_line(text, scan)


def _parse_pgsolver_whole(lines: list[str]) -> ParityGame | None:
    """The game of the record lines ``lines`` from one pass over them, or
    None where the per-line parser must decide (see :func:`_whole_columns`)."""
    whole = _whole_columns(lines, _GAME_LINE, len(lines), bits=1)
    if whole is None:
        return None
    (priorities, owners, succ_lists, quoted), node = whole
    try:
        colors = tuple(map(int, priorities))
        successors = tuple([tuple(map(node, s.split(","))) for s in succ_lists])
    except (KeyError, ValueError):  # a missing successor, or too many digits for int()
        return None
    # A repeated successor leaves its node fewer distinct successors than listed.
    listed = sum(map(len, successors))
    if max(colors) >= _MAX_PRIORITY or sum(map(len, map(set, successors))) < listed:
        return None
    names = tuple([q[1:-1] if q else None for q in quoted]) if any(quoted) else None
    return ParityGame(Arena._unchecked(successors, colors), owners, names)


def _parse_pgsolver_by_line(text: str | bytes, scan: tuple | None = None) -> ParityGame:
    """``parse_pgsolver`` one record at a time: the format's definition.
    ``scan`` is the scan of ``text``, where the caller has made it."""
    # node id -> (priority, owner, successors, name, line)
    records: dict[int, tuple[int, int, list[int], str | None, int]] = {}
    referenced: set[int] = set()
    scan = scan or _scan(text, "parity", "malformed header")
    for lineno, match in _numbered_records(scan, _RECORD, "malformed record"):
        try:
            node, priority, owner = map(int, match.group("id", "priority", "owner"))
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
        seen: set[int] = set()
        for w in succs:
            if w in seen:
                warnings.warn(
                    f"line {lineno}: node {node} lists successor {w} twice",
                    DuplicateEdgeWarning,
                    stacklevel=3,  # the caller of parse_pgsolver
                )
            seen.add(w)
        records[node] = (priority, owner, list(dict.fromkeys(succs)), match["name"], lineno)
        referenced |= seen

    if not records:
        raise PGSolverError("no node records found")
    undeclared = referenced.difference(records)
    if undeclared:
        w = min(undeclared)
        first = next(rec[4] for rec in records.values() if w in rec[2])
        message = f"node {w} is referenced but never declared, so it has no successors"
        raise PGSolverError(message + " (totality violation)", first)

    original_ids = sorted(records)
    dense = {orig: i for i, orig in enumerate(original_ids)}.__getitem__
    colors, owners, succ_lists, names, _ = zip(*map(records.__getitem__, original_ids))
    if original_ids[-1] != len(original_ids) - 1:  # renumbered: ids name the nameless
        names = tuple([str(v) if name is None else name for v, name in zip(original_ids, names)])
    successors = tuple([tuple(map(dense, succs)) for succs in succ_lists])
    return ParityGame(Arena(successors, colors), owners, names)


def write_pgsolver(game: ParityGame) -> str:
    """Serialize a game; ``parse_pgsolver`` inverts this exactly.

    Raises :class:`ValueError`, naming the node, for what a record cannot
    hold: a priority of 2^62 or more, or a name with a ``"`` or a line
    break.
    """
    colors = game.arena.colors
    top = max(colors)
    if top >= _MAX_PRIORITY:
        raise ValueError(f"node {colors.index(top)}: priority {top} is not below 2^62")
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
        lines.append(f"{v} {colors[v]} {game.owners[v]} {succs}{name};")
    return "\n".join(lines) + "\n"


def parse_solution(text: str | bytes, game: ParityGame) -> Solution:
    """Parse a ``paritysol`` listing against the game it solves."""
    scan = _scan(text, "paritysol", "malformed solution header")
    return _parse_solution_whole(scan[1], game) or _parse_solution_by_line(text, game, scan)


def _parse_solution_whole(lines: list[str], game: ParityGame) -> Solution | None:
    """The solution of the record lines ``lines`` from one pass over them,
    or None where the per-line parser must decide (see :func:`_whole_columns`)."""
    whole = _whole_columns(lines, _SOLUTION_LINE, game.node_count, bits=0)
    if whole is None:
        return None
    (winners, moves), node = whole
    strategies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    try:
        for v, move, owner in zip(count(), moves, game.owners):
            if move:
                strategies[owner][v] = node(move)
    except KeyError:
        return None
    return Solution(winners, *strategies)


def _parse_solution_by_line(
    text: str | bytes, game: ParityGame, scan: tuple | None = None
) -> Solution:
    """``parse_solution`` one record at a time: the format's definition.
    ``scan`` is the scan of ``text``, where the caller has made it."""
    winner: dict[int, int] = {}
    strategy: dict[int, tuple[int, int]] = {}  # node -> (successor, line)
    n = game.node_count
    scan = scan or _scan(text, "paritysol", "malformed solution header")
    for lineno, match in _numbered_records(scan, _SOLUTION_RECORD, "malformed solution record"):
        try:
            v, win = int(match["id"]), int(match["winner"])
            move = None if match["move"] is None else int(match["move"])
        except ValueError:  # more digits than int() accepts
            raise PGSolverError(f"malformed solution record: {match.string!r}", lineno) from None
        if v >= n:
            raise PGSolverError(f"node {v} out of range", lineno)
        if win not in (0, 1):
            raise PGSolverError(f"winner must be 0 or 1, got {win}", lineno)
        if v in winner:
            raise PGSolverError(f"node {v} listed twice", lineno)
        winner[v] = win
        if move is not None:
            strategy[v] = (move, lineno)

    if not winner:
        raise PGSolverError("no solution records found")
    missing = [v for v in range(n) if v not in winner]
    if missing:
        raise PGSolverError(f"solution does not label node {missing[0]}")

    strategies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for v, (w, lineno) in strategy.items():
        if not 0 <= w < n:
            raise PGSolverError(f"strategy successor {w} of node {v} out of range", lineno)
        strategies[game.owners[v]][v] = w
    return Solution(tuple(winner[v] for v in range(n)), *strategies)


def write_solution(solution: Solution) -> str:
    """Serialize a solution.  ``parse_solution``, given the game of its
    nodes, reads it back unchanged when each strategy entry sits at a node
    of the table's player.

    Raises :class:`ValueError`, naming the node, for what ``parse_solution``
    refuses: a winner other than the ``int`` 0 or 1, or a strategy key or
    move that is not an ``int`` node 0..n-1.  :class:`Solution` itself
    accepts them all, so that ``verify_solution`` can judge such claims.
    """
    winner = solution.winner
    n = len(winner)
    merged = dict(solution.strategy1)
    merged.update(solution.strategy0)
    ends = [*merged, *merged.values()]
    if (
        winner.count(0) + winner.count(1) != n
        or not {*map(type, winner), *map(type, ends)} <= {int}
        or ends and not 0 <= min(ends) <= max(ends) < n
    ):
        for v, win in enumerate(winner):
            if type(win) is not int or win not in (0, 1):
                raise ValueError(f"node {v}: winner {win!r} is not 0 or 1")
        for v, w in merged.items():
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"node {v!r}: strategy key is not a node 0..{n - 1}")
            if type(w) is not int or not 0 <= w < n:
                raise ValueError(f"node {v}: move {w!r} is not a node 0..{n - 1}")
    move = merged.get
    lines = [f"paritysol {n - 1};"]
    lines += [
        f"{v} {win};" if (w := move(v)) is None else f"{v} {win} {w};"
        for v, win in enumerate(winner)
    ]
    return "\n".join(lines) + "\n"
