"""PGSolver format reader/writer."""

from __future__ import annotations

import re
import warnings
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from rabinindex import pgsolver
from rabinindex.pgsolver import (
    DuplicateEdgeWarning,
    PGSolverError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from rabinindex.arena import Arena, ParityGame, Solution
from rabinindex.solver import zielonka_solve

from helpers import games
from conftest import FIG1_TEXT

FIG1_GAME = parse_pgsolver(FIG1_TEXT)
FIG1_SOLUTION = "paritysol 4;\n0 1 4;\n1 0 2;\n2 0;\n3 1 4;\n4 1;\n"
TOO_LONG = "9" * 5000  # beyond the digits int() accepts

_FRAGMENTS = st.sampled_from(
    [";", ",", " ", "\n", "-", '"', "--", "parity 3;", "paritysol 4;", "0", "-1", TOO_LONG]
) | st.text(max_size=6)


@st.composite
def mutated(draw: st.DrawFn, text: str) -> str:
    """``text`` with a few short slices replaced by format fragments."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(_FRAGMENTS) + text[stop:]
    return text


def _parse_or_reject(parse, data) -> None:
    """Parsing returns a result or raises PGSolverError, nothing else."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateEdgeWarning)
        try:
            parse(data)
        except PGSolverError:
            pass


def test_parse_fig1(fig1_text):
    game = parse_pgsolver(fig1_text)
    assert game.arena.colors == (3, 3, 2, 1, 2)
    assert game.owners == (1, 0, 1, 1, 0)
    assert game.arena.successors == ((1, 4), (0, 2), (1,), (2, 4), (3,))
    assert game.names == ("v0", "v1", "v2", "v3", "v4")


def test_roundtrip_fig1(fig1_text, fig1_game):
    assert parse_pgsolver(write_pgsolver(fig1_game)) == fig1_game


def test_header_is_optional():
    game = parse_pgsolver("0 1 0 1;\n1 0 1 0;\n")
    assert game.node_count == 2


def test_malformed_header():
    with pytest.raises(PGSolverError, match="line 1: malformed header"):
        parse_pgsolver("parity x;\n0 0 0 0;\n")


def test_missing_semicolon_reports_line():
    with pytest.raises(PGSolverError, match="line 2: record does not end"):
        parse_pgsolver("0 1 0 1;\n1 0 1 0\n")


def test_comments_and_blank_lines_skipped():
    text = "-- a comment\nparity 1;\n\n0 1 0 1;\n-- mid\n1 0 1 0;\n"
    assert parse_pgsolver(text).node_count == 2


def test_duplicate_successor_warns_and_dedupes():
    with pytest.warns(DuplicateEdgeWarning):
        game = parse_pgsolver("0 1 0 1,1;\n1 0 1 0;\n")
    assert game.arena.successors[0] == (1,)


def test_undeclared_successor_is_totality_error():
    with pytest.raises(PGSolverError, match="never declared"):
        parse_pgsolver("0 1 0 1;\n")


def test_undeclared_successor_names_smallest_id_and_first_reference():
    text = "0 1 0 9;\n1 0 1 5,9;\n2 0 0 5;\n"
    with pytest.raises(PGSolverError, match="line 2: node 5 is referenced but never declared"):
        parse_pgsolver(text)


def test_duplicate_declaration_rejected():
    with pytest.raises(PGSolverError, match="declared twice"):
        parse_pgsolver("0 1 0 1;\n1 0 1 0;\n0 2 1 1;\n")


def test_owner_and_priority_validation():
    with pytest.raises(PGSolverError, match="owner"):
        parse_pgsolver("0 1 2 0;\n")
    with pytest.raises(PGSolverError, match="negative priority"):
        parse_pgsolver("0 -1 0 0;\n")
    with pytest.raises(PGSolverError, match="^line 1: negative successor id -1$"):
        parse_pgsolver("0 1 0 -1;")


def test_empty_input_rejected():
    with pytest.raises(PGSolverError, match="no node records"):
        parse_pgsolver("parity 3;\n")


def test_sparse_ids_renumbered_with_names():
    game = parse_pgsolver("2 1 0 7;\n7 0 1 2;\n")
    assert game.node_count == 2
    assert game.arena.successors == ((1,), (0,))
    assert game.names == ("2", "7")


def test_parse_bytes():
    game = parse_pgsolver(b"0 1 0 1;\n1 0 1 0;\n")
    assert game.node_count == 2


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_pgsolver, FIG1_TEXT),
        (parse_pgsolver, "0 1 0 1;\n1 2 1 0;\n"),
        (lambda text: parse_solution(text, FIG1_GAME), FIG1_SOLUTION),
    ],
    ids=["game", "headerless-game", "solution"],
)
def test_leading_byte_order_mark_is_ignored(parse, text, as_bytes):
    marked = "\ufeff" + text
    if as_bytes:
        text, marked = text.encode("utf-8"), marked.encode("utf-8")
    assert parse(marked) == parse(text)


@given(games(max_nodes=8, max_color=9))
def test_write_parse_roundtrip(game):
    assert parse_pgsolver(write_pgsolver(game)) == game


@pytest.mark.parametrize("name", ['a"b', "x\ny", "x\r", "\x1c", "x\u2028y", "\x85"])
def test_write_rejects_a_name_a_record_cannot_hold(name):
    names = ("v0", None, name, "v3", "v4")
    with pytest.raises(ValueError, match=f"^node 2: name {re.escape(repr(name))} "):
        write_pgsolver(ParityGame(FIG1_GAME.arena, FIG1_GAME.owners, names))


def test_name_table_of_only_none_round_trips():
    game = ParityGame(Arena(((1,), (0,)), (1, 2)), (0, 1), (None, None))
    assert game.names is None
    assert parse_pgsolver(write_pgsolver(game)) == game


def test_duplicate_successor_warning_points_at_the_caller():
    with pytest.warns(DuplicateEdgeWarning) as caught:
        parse_pgsolver("0 1 0 1,1;\n1 0 1 0;\n")
    assert [w.filename for w in caught] == [__file__]


def test_solution_roundtrip(fig1_game):
    solution = Solution(
        winner=(1, 0, 0, 1, 1), strategy0={1: 2}, strategy1={0: 4, 3: 4}
    )
    text = write_solution(solution)
    assert text.splitlines()[0] == "paritysol 4;"
    assert parse_solution(text, fig1_game) == solution


def test_solution_strategies_split_by_owner(fig1_game):
    # Node 1 belongs to player 0, nodes 0 and 3 to player 1.
    text = "paritysol 4;\n0 1 4;\n1 0 2;\n2 0;\n3 1 4;\n4 1;\n"
    solution = parse_solution(text, fig1_game)
    assert solution.strategy0 == {1: 2}
    assert solution.strategy1 == {0: 4, 3: 4}


def test_solution_requires_every_node(fig1_game):
    with pytest.raises(PGSolverError, match="does not label node 4"):
        parse_solution("paritysol 4;\n0 1;\n1 0;\n2 0;\n3 1;\n", fig1_game)


def test_solution_rejects_bad_winner(fig1_game):
    with pytest.raises(PGSolverError, match="winner"):
        parse_solution("paritysol 4;\n0 2;\n", fig1_game)


def test_solution_rejects_out_of_range_strategy(fig1_game):
    text = "paritysol 4;\n0 1 9;\n1 0;\n2 0;\n3 1;\n4 1;\n"
    with pytest.raises(PGSolverError, match="out of range"):
        parse_solution(text, fig1_game)


def test_out_of_range_strategy_successor_names_its_line():
    game = parse_pgsolver("0 1 0 1;\n1 0 1 0;\n")
    with pytest.raises(PGSolverError) as raised:
        parse_solution("paritysol 1;\n0 1 9;\n1 0;\n", game)
    assert str(raised.value) == "line 2: strategy successor 9 of node 0 out of range"
    assert raised.value.line == 2


def test_oversized_integers_are_parse_errors():
    for text in (f"0 1 0 {TOO_LONG};", f"{TOO_LONG} 1 0 0;", f"0 {TOO_LONG} 0 0;"):
        with pytest.raises(PGSolverError, match="line 1: integer too long"):
            parse_pgsolver(text)
    with pytest.raises(PGSolverError, match="malformed solution record"):
        parse_solution(f"0 1 {TOO_LONG};", FIG1_GAME)


@pytest.mark.parametrize("number", ["+1", "1_0", "1.0", "0x1"])
def test_games_and_solutions_share_one_number_grammar(number):
    # Spellings int() reads but the record grammar does not: in both
    # formats they leave the record malformed, wherever they stand.
    for text in (f"{number} 1 0 0;", f"0 {number} 0 0;", f"0 1 0 {number};"):
        with pytest.raises(PGSolverError, match="^line 1: malformed record: "):
            parse_pgsolver(text)
    for text in (f"{number} 1;", f"0 {number};", f"0 1 {number};"):
        with pytest.raises(PGSolverError, match="^line 1: malformed solution record: "):
            parse_solution(text, FIG1_GAME)


def test_write_rejects_a_priority_the_parser_refuses():
    # 2^62 - 1 is the largest priority a record holds; the writer names the
    # first node above it instead of writing a file parse_pgsolver rejects.
    arena = Arena(((1,), (0,), (0,)), (1, 2**62, 2**62))
    message = r"^node 1: priority 4611686018427387904 is not below 2\^62$"
    with pytest.raises(ValueError, match=message):
        write_pgsolver(ParityGame(arena, (0, 1, 0)))
    game = ParityGame(Arena(((1,), (0,)), (1, 2**62 - 1)), (0, 1))
    assert parse_pgsolver(write_pgsolver(game)) == game


@pytest.mark.parametrize(
    "solution, message",
    [
        (Solution((True, 0.0), {0: 1}), "node 0: winner True is not 0 or 1"),
        (Solution((0, 1.0)), r"node 1: winner 1\.0 is not 0 or 1"),
        (Solution((0, 2)), "node 1: winner 2 is not 0 or 1"),
        (Solution((0, 1), {0: 1.0}), r"node 0: move 1\.0 is not a node 0\.\.1"),
        (Solution((0, 1), {0: 1}, {1: True}), r"node 1: move True is not a node 0\.\.1"),
        (Solution((0, 1), {0: -1}), r"node 0: move -1 is not a node 0\.\.1"),
        (Solution((0, 1), {}, {1: 2}), r"node 1: move 2 is not a node 0\.\.1"),
        (Solution((0, 1), {2: 0}), r"node 2: strategy key is not a node 0\.\.1"),
        (Solution((0, 1), {0: 1}, {-1: 0}), r"node -1: strategy key is not a node 0\.\.1"),
        (Solution((0, 1), {"a": 0}), r"node 'a': strategy key is not a node 0\.\.1"),
        (Solution((0, 1), {True: 0}), r"node True: strategy key is not a node 0\.\.1"),
    ],
)
def test_write_rejects_a_solution_the_parser_refuses(solution, message):
    # No record holds these (``0 True 1;`` does not parse, and ``0 0 -1;``
    # names no node), but Solution takes them, for verify_solution to judge.
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_solution(solution)


@given(st.binary(max_size=300) | st.text(max_size=300))
def test_arbitrary_input_parses_or_is_rejected(data):
    _parse_or_reject(parse_pgsolver, data)
    _parse_or_reject(lambda d: parse_solution(d, FIG1_GAME), data)


@given(mutated(FIG1_TEXT))
def test_mutated_game_parses_or_is_rejected(text):
    _parse_or_reject(parse_pgsolver, text)
    _parse_or_reject(parse_pgsolver, text.encode("utf-8"))


@given(mutated(FIG1_SOLUTION))
def test_mutated_solution_parses_or_is_rejected(text):
    _parse_or_reject(lambda d: parse_solution(d, FIG1_GAME), text)


def _outcome(parse, data):
    """What parsing ``data`` gives: the result or the error text, and the
    category and text of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(data)
        except PGSolverError as exc:
            result = f"PGSolverError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


def _fig1_solution(text):
    return parse_solution(text, FIG1_GAME)


def _fig1_solution_by_line(text):
    return pgsolver._parse_solution_by_line(text, FIG1_GAME)


# Each public parser beside the per-line parser it falls back to.
_GAME_PARSERS = (parse_pgsolver, pgsolver._parse_pgsolver_by_line)
_SOLUTION_PARSERS = (_fig1_solution, _fig1_solution_by_line)


@pytest.mark.parametrize(
    "parsers, text",
    [
        (_GAME_PARSERS, f"0 {2**62 - 1} 0 0;"),
        (_GAME_PARSERS, f"0 {2**62} 0 0;"),
        (_GAME_PARSERS, "0 1 0 0;\n1 -0 1 0;"),
        (_GAME_PARSERS, "007 1 0 7;"),
        (_GAME_PARSERS, "0 1 01 0;"),
        (_GAME_PARSERS, "\u0661 1 0 1;\n0 1 0 1;"),
        (_GAME_PARSERS, '0\xa01\t0 0 ,\xa00 "";'),
        (_GAME_PARSERS, "0 1 0 1;\n1 1 0 0;\n1 1 0 0;"),
        (_GAME_PARSERS, '0 1 0 1 "a;b";\n1 1 0 0 "";'),
        (_GAME_PARSERS, '0 1 0 1 "a\n";\n1 1 0 0;'),
        (_GAME_PARSERS, "parity 1;\nparity 1;\n0 1 0 0;"),
        (_GAME_PARSERS, "\ufeff-- c\r\n\n parity 9 ;\n9 1 0 9;"),
        (_SOLUTION_PARSERS, "1 0 2;\n0 1 4;\n2 0;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n1 0 2;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4;\n001 0 02;\n2 0;\n3 1 4;\n4 1 ;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n2 0;\n3 1 4;\n4 1 5;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n2 0;\n3 1 4;\n4 -0;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n2 0;\n3 1 \u0664;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n2 0;\n3 1 4;"),
        # Spellings the per-line parser reads and the whole-text pass
        # hands on: blanks other than one space, and commas out of place.
        (_GAME_PARSERS, "0  1 0 1;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1\t0 1;\n1 0 1 0;"),
        (_GAME_PARSERS, '0 1 0 1  "a";\n1 0 1 0;'),
        (_GAME_PARSERS, "0 1 0 1 ;\n1 0 1 0;"),
        (_GAME_PARSERS, '0 1 0 1 "a" ;\n1 0 1 0;'),
        (_GAME_PARSERS, "0 1 0 1 ,0;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1 0 1, 0;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1 0 1,,0;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1 0 ,1;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1 0 1,;\n1 0 1 0;"),
        (_GAME_PARSERS, "0 1 0 1;\n1 0 1 ,;"),
        (_SOLUTION_PARSERS, "0  1 4;\n1 0 2;\n2 0;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1\t4;\n1 0 2;\n2 0;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4 ;\n1 0 2;\n2 0 ;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4,;\n1 0 2;\n2 0;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 ,4;\n1 0 2;\n2 0;\n3 1 4;\n4 1;"),
        (_SOLUTION_PARSERS, "0 1 4;\n1 0 2;\n2 0;\n3 1 4 , 4;\n4 1;"),
    ],
)
def test_edge_inputs_parse_as_by_line(parsers, text):
    parse, by_line = parsers
    assert _outcome(parse, text) == _outcome(by_line, text)


# Text over the characters records are made of, plus a non-ASCII blank
# (NBSP) and a non-ASCII digit that int() accepts (ARABIC-INDIC ONE).
_RECORD_CHARACTERS = st.text('0123456789 ,;-"\t\r\n\xa0\u0661', max_size=60)

# Numbers the whole-text pass takes, and spellings only the per-line parser
# decides: a sign, a leading zero, a non-ASCII digit, too many digits, and
# the least priority out of range, which the writer refuses to write.
_NUMBER = st.integers(0, 9).map(str) | st.sampled_from(
    ["-0", "-1", "01", "\u0661", TOO_LONG, str(2**62)]
)


@st.composite
def retouched(draw: st.DrawFn, texts: st.SearchStrategy[str]) -> str:
    """A drawn text with up to three of its numbers replaced, and perhaps
    two of its records swapped or one of them repeated; its first line, the
    header, stays first."""
    parts = re.split(r"([0-9]+)", draw(texts))  # numbers at odd positions
    for _ in range(draw(st.integers(0, 3))):
        parts[2 * draw(st.integers(0, len(parts) // 2 - 1)) + 1] = draw(_NUMBER)
    lines = "".join(parts).splitlines()
    i, j = draw(st.integers(1, len(lines) - 1)), draw(st.integers(1, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "none", "swap", "repeat"]))
    if edit == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[j])
    return "\n".join(lines)


@st.composite
def rewritten(draw: st.DrawFn) -> str:
    """A drawn game written by hand: ids spread sparsely (or not), records
    reordered, maybe a repeated successor, comments, blank lines and CRLF."""
    game = draw(games(max_nodes=8, max_color=9))
    n = game.node_count
    ids = draw(
        st.just(list(range(n)))
        | st.sets(st.integers(0, 3 * n), min_size=n, max_size=n).map(sorted)
    )
    repeat = draw(st.sets(st.integers(0, n - 1), max_size=2))
    lines = []
    for v in draw(st.permutations(range(n))):
        succs = [ids[w] for w in game.arena.successors[v]]
        if v in repeat:
            succs.append(succs[-1])
        name = "" if game.names is None or game.names[v] is None else f' "{game.names[v]}"'
        record = f"{ids[v]} {game.arena.colors[v]} {game.owners[v]} {','.join(map(str, succs))}"
        lines.append(record + name + ";")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "-- note"])))
    if draw(st.booleans()):
        lines.insert(0, f"parity {ids[-1]};")
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@st.composite
def fig1_solutions(draw: st.DrawFn) -> Solution:
    """A labelling of FIG1_GAME with moves among its nodes, all that the
    writer writes; :func:`retouched` puts numbers out of range in."""
    strategies = ({}, {})
    for v, owner in enumerate(FIG1_GAME.owners):
        move = draw(st.none() | st.integers(0, 4))
        if move is not None:
            strategies[owner][v] = move
    return Solution(tuple(draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))), *strategies)


@pytest.mark.parametrize(
    "parsers, inputs",
    [
        (_GAME_PARSERS, mutated(FIG1_TEXT)),
        (_GAME_PARSERS, mutated(FIG1_TEXT).map(str.encode)),
        (_GAME_PARSERS, _RECORD_CHARACTERS),
        (_GAME_PARSERS, retouched(games(max_nodes=6, max_color=2**62 - 1).map(write_pgsolver))),
        (_GAME_PARSERS, rewritten()),
        (_SOLUTION_PARSERS, mutated(FIG1_SOLUTION)),
        (_SOLUTION_PARSERS, _RECORD_CHARACTERS),
        (_SOLUTION_PARSERS, retouched(fig1_solutions().map(write_solution))),
    ],
    ids=[
        "game-mutated",
        "game-mutated-bytes",
        "game-characters",
        "game-retouched",
        "game-rewritten",
        "solution-mutated",
        "solution-characters",
        "solution-retouched",
    ],
)
@given(data=st.data())
def test_parsers_agree_with_the_per_line_parsers(parsers, inputs, data):
    text = data.draw(inputs)
    parse, by_line = parsers
    assert _outcome(parse, text) == _outcome(by_line, text)


_NO_PER_LINE_PATH = mock.patch.multiple(
    pgsolver,
    _parse_pgsolver_by_line=mock.Mock(side_effect=AssertionError("took the per-line path")),
    _parse_solution_by_line=mock.Mock(side_effect=AssertionError("took the per-line path")),
)


@given(games(max_nodes=8, max_color=9), st.data())
def test_written_games_and_solutions_never_take_the_per_line_path(game, data):
    n = game.node_count
    drawn = ({}, {})
    for v in range(n):
        move = data.draw(st.none() | st.integers(0, n - 1))
        if move is not None:
            drawn[game.owners[v]][v] = move
    winner = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    with _NO_PER_LINE_PATH:
        assert parse_pgsolver(write_pgsolver(game)) == game
        for solution in (zielonka_solve(game), Solution(winner, *drawn)):
            assert parse_solution(write_solution(solution), game) == solution


@pytest.mark.parametrize(
    "parse, text, message, line",
    [
        (
            parse_pgsolver,
            b"\xff",
            "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
            None,
        ),
        (parse_pgsolver, "-- c\n\nparity x;\n0 1 0 0;", "line 3: malformed header", 3),
        (_fig1_solution, "paritysol x;\n0 1 4;", "line 1: malformed solution header", 1),
    ],
)
def test_the_scan_reports_encoding_and_header_errors(parse, text, message, line):
    # Both stages read one scan, so the whole-text pass raises these
    # errors itself, in the per-line parser's words, without falling back.
    with _NO_PER_LINE_PATH, pytest.raises(PGSolverError) as caught:
        parse(text)
    assert (str(caught.value), caught.value.line) == (message, line)


def test_sparse_reordered_text_takes_the_per_line_path():
    # The whole-text pass takes only the records 0..n-1 in order; the
    # per-line parser renumbers anything else into the same game.
    text = '\ufeff-- c\n\nparity 30;\n30 2 1 10 "top";\r\n10 1 0 20,30;\n20 0 0 10 "";\n'
    by_line = mock.Mock(wraps=pgsolver._parse_pgsolver_by_line)
    with mock.patch.object(pgsolver, "_parse_pgsolver_by_line", by_line):
        game = parse_pgsolver(text.encode("utf-8"))
    by_line.assert_called_once()
    assert game == pgsolver._parse_pgsolver_by_line(text)
    assert game.arena.successors == ((1, 2), (0,), (0,))
    assert game.names == ("10", "", "top")


# CI's hand-written game: sparse out-of-order ids, a comment, a blank line,
# a CRLF line, a name and a repeated successor.
HAND_GM = '-- hand-written\nparity 30;\n\n30 2 1 10 "top";\r\n10 1 0 20,30,20;\n20 0 0 10;\n'


@pytest.mark.parametrize(
    "parsers, by_line_name, text",
    [
        (_GAME_PARSERS, "_parse_pgsolver_by_line", HAND_GM),
        (
            _SOLUTION_PARSERS,
            "_parse_solution_by_line",
            "paritysol 4;\n0\t1 4;\n1 0  2;\n2 0 ;\n3 1 4;\n4 1;\n",
        ),
    ],
    ids=["game", "solution"],
)
def test_a_fallback_input_is_scanned_once(parsers, by_line_name, text):
    # The per-line parser reads the scan the whole-text pass made.
    parse, by_line = parsers
    expected = _outcome(by_line, text)
    scan = mock.Mock(wraps=pgsolver._scan)
    taken = mock.Mock(wraps=getattr(pgsolver, by_line_name))
    with mock.patch.multiple(pgsolver, _scan=scan, **{by_line_name: taken}):
        assert _outcome(parse, text) == expected
    taken.assert_called_once()
    scan.assert_called_once()
