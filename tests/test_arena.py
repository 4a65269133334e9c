"""Arena and game construction invariants."""

from __future__ import annotations

import pytest
from hypothesis import given

from rabinindex.arena import Arena, ParityGame, cycle_color, index

from helpers import arenas


def test_from_lists_builds_tuples():
    arena = Arena.from_lists([[1], [0]], [0, 1])
    assert arena.successors == ((1,), (0,))
    assert arena.colors == (0, 1)
    assert arena.node_count == 2


def test_rejects_empty_arena():
    with pytest.raises(ValueError, match="at least one node"):
        Arena((), ())


def test_rejects_dead_end():
    with pytest.raises(ValueError, match="total"):
        Arena(((1,), ()), (0, 0))


def test_rejects_out_of_range_successor():
    with pytest.raises(ValueError, match="out of range"):
        Arena(((2,), (0,)), (0, 0))


def test_rejects_duplicate_successor():
    with pytest.raises(ValueError, match="duplicate"):
        Arena(((1, 1), (0,)), (0, 0))


def test_rejects_negative_color():
    with pytest.raises(ValueError, match="negative color"):
        Arena(((1,), (0,)), (0, -1))


def test_rejects_non_integer_color():
    with pytest.raises(ValueError, match=r"color 0\.5 at node 0 is not an integer"):
        Arena(((1,), (0,)), (0.5, 1))
    arena = Arena(((1,), (0,)), (0, 1))
    with pytest.raises(ValueError, match="color '2' at node 1 is not an integer"):
        arena.with_colors((0, "2"))
    with pytest.raises(ValueError, match="color True at node 1 is not an integer"):
        arena.with_colors((0, True))


def test_rejects_non_integer_successor():
    with pytest.raises(ValueError, match=r"successor 1\.0 of node 0 is not an integer"):
        Arena(((1.0,), (0,)), (0, 1))
    with pytest.raises(ValueError, match="successor True of node 0 is not an integer"):
        Arena(((True,), (0,)), (0, 1))


def test_rejects_color_length_mismatch():
    with pytest.raises(ValueError, match="2 nodes"):
        Arena(((1,), (0,)), (0,))


def test_with_colors_keeps_graph():
    arena = Arena(((1,), (0,)), (0, 1))
    other = arena.with_colors((4, 5))
    assert other.successors is arena.successors
    assert other.colors == (4, 5)


def test_with_colors_shares_graph_indexes():
    arena = Arena.from_lists([[2, 0, 1], [0], [1, 0]], [0, 1, 2])
    names = ("predecessors",)
    built = [getattr(arena, name) for name in names]
    other = arena.with_colors((3, 4, 5))
    assert all(getattr(other, name) is index for name, index in zip(names, built))
    assert other.colors == (3, 4, 5) and arena.colors == (0, 1, 2)
    # Anything else cached on the parent may depend on its colors: not copied.
    arena.__dict__["color_cache"] = arena.colors
    assert "color_cache" not in arena.with_colors((3, 4, 5)).__dict__
    with pytest.raises(ValueError, match="coloring has 2 entries for 3 nodes"):
        arena.with_colors((3, 4))
    with pytest.raises(ValueError, match="negative color -1 at node 1"):
        arena.with_colors((3, -1, 5))


def test_game_with_colors_checks_only_the_coloring(monkeypatch):
    game = ParityGame(Arena(((1,), (0,)), (0, 1)), (0, 1), ("a", None))

    def fail(self, *args, **kwargs):
        raise AssertionError("owners and names were checked again")

    monkeypatch.setattr(ParityGame, "__init__", fail)
    other = game.with_colors((2, 3))
    assert other.owners is game.owners and other.names is game.names
    assert other.arena.colors == (2, 3) and other.arena.successors is game.arena.successors
    monkeypatch.undo()
    assert other == ParityGame(Arena(((1,), (0,)), (2, 3)), (0, 1), ("a", None))
    with pytest.raises(ValueError, match="negative color -1 at node 1"):
        game.with_colors((2, -1))
    with pytest.raises(ValueError, match="coloring has 1 entries for 2 nodes"):
        game.with_colors((2,))


def test_has_edge(fig1_arena):
    assert fig1_arena.has_edge(0, 4)
    assert not fig1_arena.has_edge(4, 0)


def test_predecessors_fig1(fig1_arena):
    assert fig1_arena.predecessors == ((1,), (0, 2), (1, 3), (4,), (0, 3))


@given(arenas(max_nodes=7))
def test_predecessors_invert_successors(arena):
    for v in range(arena.node_count):
        for w in arena.successors[v]:
            assert v in arena.predecessors[w]
    for w in range(arena.node_count):
        for v in arena.predecessors[w]:
            assert arena.has_edge(v, w)


def test_game_owner_validation(fig1_arena):
    with pytest.raises(ValueError, match="owner"):
        ParityGame(fig1_arena, (0, 1, 2, 0, 1))
    with pytest.raises(ValueError, match="entries"):
        ParityGame(fig1_arena, (0, 1))


# Each of these once built, and its PGSolver text (``0.0``, ``True``) did
# not parse back.
@pytest.mark.parametrize(
    "owners, colors, message",
    [
        ((0.0, 1.0), (0, 1), r"owner 0\.0 of node 0 is not an integer"),
        ((0, True), (0, 1), "owner True of node 1 is not an integer"),
        ((0, 1), (False, 1), "color False at node 0 is not an integer"),
    ],
)
def test_game_refuses_what_the_writer_cannot_spell(owners, colors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ParityGame(Arena(((1,), (0,)), colors), owners)


def test_game_name_table_length(fig1_arena):
    with pytest.raises(ValueError, match="name table"):
        ParityGame(fig1_arena, (0,) * 5, names=("a",))


def test_game_refuses_a_name_that_is_not_a_string():
    # write_pgsolver can write only a str name.
    arena = Arena(((1,), (0,)), (0, 1))
    with pytest.raises(ValueError, match="^name 5 of node 0 is neither a str nor None$"):
        ParityGame(arena, (0, 1), names=(5, None))
    assert ParityGame(arena, (0, 1), names=("a", None)).names == ("a", None)


def test_cycle_color(fig1_arena):
    assert cycle_color(fig1_arena, [0, 1]) == 3
    assert cycle_color(fig1_arena, [0, 4, 3, 2, 1]) == 1
    with pytest.raises(ValueError, match="not an edge"):
        cycle_color(fig1_arena, [0, 2])
    with pytest.raises(ValueError, match="empty"):
        cycle_color(fig1_arena, [])


def test_index():
    assert index((0, 3, 2)) == 3
    assert index((0,)) == 0
    with pytest.raises(ValueError):
        index(())
