"""PGSolver format reader/writer."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, strategies as st

from rabinindex.pgsolver import (
    DuplicateEdgeWarning,
    PGSolverError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from rabinindex.arena import Solution

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


def test_oversized_integers_are_parse_errors():
    for text in (f"0 1 0 {TOO_LONG};", f"{TOO_LONG} 1 0 0;", f"0 {TOO_LONG} 0 0;"):
        with pytest.raises(PGSolverError, match="line 1: integer too long"):
            parse_pgsolver(text)
    with pytest.raises(PGSolverError, match="malformed solution record"):
        parse_solution(f"0 1 {TOO_LONG};", FIG1_GAME)


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
