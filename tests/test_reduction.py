"""Rank fixpoint reduction, static compression, and the abstract variants."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings

from rabinindex.arena import Arena, cycle_color, index
from rabinindex.cycles import NodeCapExceeded
from rabinindex.oracles import (
    brute_force_rabin_index,
    colorings_equivalent,
    fixpoint_violations,
)
from rabinindex.reduction import (
    BudgetExhausted,
    OracleMode,
    ReductionAborted,
    abstract_membership,
    all_cycles_even,
    get_anchor,
    rabin,
    rabin_a,
    static_compress,
)
from rabinindex.cycles import enumerate_simple_cycles

EXACT = OracleMode.EXACT
ABSTRACT = OracleMode.ABSTRACT

from helpers import arenas, count_tarjan_calls, nested_path


# Node orders that process the running example the way a (color, node)
# ascending sort would after the first in-place update lands.
_PINNED_ORDERS = [[3, 4, 2, 0, 1], [0, 3, 1, 2, 4]]


def test_exact_reduction_fig1(fig1_arena):
    colors, report = rabin(fig1_arena, orders=_PINNED_ORDERS)
    assert colors == (1, 2, 2, 1, 2)
    assert report.mode == EXACT
    assert report.initial_index == 3
    assert report.final_index == 2
    assert report.iteration_count == 2
    first, second = report.iterations
    assert first.cycle_changes == ((0, 3, 1),)
    assert first.pop_changes == ((1, 3, 2),)
    assert second.cycle_changes == ()
    assert second.pop_changes == ()


def test_exact_reduction_fig1_default_order(fig1_arena):
    colors, report = rabin(fig1_arena)
    assert colors == (1, 2, 2, 1, 2)
    assert report.iteration_count == 2


def test_abstract_reduction_fig1(fig1_arena):
    colors, report = rabin(fig1_arena, mode=ABSTRACT)
    assert colors == (3, 3, 2, 1, 2)
    assert report.mode == ABSTRACT
    assert report.final_index == 3
    assert report.iteration_count == 1
    assert report.iterations[0].cycle_changes == ()
    assert report.iterations[0].pop_changes == ()


def test_exact_reduction_chain(chain_arena):
    colors, report = rabin(chain_arena)
    assert colors == (0, 1, 2, 3, 3, 2, 1)
    assert report.iteration_count == 4
    traces = [(it.cycle_changes, it.pop_changes) for it in report.iterations]
    assert traces == [
        ((), ((6, 6, 5),)),
        (((6, 5, 1),), ((5, 5, 4),)),
        (((5, 4, 2),), ((4, 4, 3),)),
        ((), ()),
    ]


def test_abstract_reduction_chain(chain_arena):
    colors, report = rabin(chain_arena, mode=ABSTRACT)
    assert colors == (0, 1, 2, 3, 4, 5, 5)
    assert report.iteration_count == 2
    assert report.iterations[0].cycle_changes == ()
    assert report.iterations[0].pop_changes == ((6, 6, 5),)


def test_rabin_rejects_unknown_mode(fig1_arena):
    with pytest.raises(ValueError, match="OracleMode"):
        rabin(fig1_arena, mode="fancy")


def test_rabin_is_idempotent(fig1_arena):
    colors, _ = rabin(fig1_arena)
    again, report = rabin(fig1_arena, coloring=colors)
    assert again == colors
    assert report.iteration_count == 1


def test_rabin_budget_abort(fig1_arena):
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(fig1_arena, budget_limit=2)
    aborted = excinfo.value
    assert isinstance(aborted, BudgetExhausted)
    assert 0 <= aborted.node < 5
    assert aborted.gamma >= 0
    assert aborted.report.mode == EXACT


def test_get_anchor_fig1(fig1_arena):
    colors = list(fig1_arena.colors)
    assert get_anchor(fig1_arena, colors, 3, mode=EXACT) == -1
    assert get_anchor(fig1_arena, colors, 4, mode=EXACT) == 1
    assert get_anchor(fig1_arena, colors, 2, mode=EXACT) == 1
    assert get_anchor(fig1_arena, colors, 0, mode=EXACT) == -1
    assert get_anchor(fig1_arena, colors, 1, mode=EXACT) == 2
    # Closed walks find a covering walk of minimum 2 through v0.
    assert get_anchor(fig1_arena, colors, 0, mode=ABSTRACT) == 2


def test_report_rendering(fig1_arena):
    _, report = rabin(fig1_arena, orders=_PINNED_ORDERS)
    text = report.to_text()
    assert "initial index 3" in text
    assert "final index 2" in text
    assert "cycle: v0 3->1 | pop: v1 3->2" in text
    records = report.to_records()
    assert records[0]["iteration"] == 1


def test_static_compress_example():
    assert static_compress((0, 3, 4, 5, 6, 8)) == (0, 1, 2, 3, 4, 4)


def test_static_compress_single_color():
    assert static_compress((7, 7, 7)) == (1, 1, 1)
    assert static_compress((4,)) == (0,)


@given(arenas(max_nodes=6, max_color=9))
@settings(max_examples=80)
def test_static_compress_properties(arena):
    compressed = static_compress(arena.colors)
    assert len(compressed) == len(arena.colors)
    for old, new in zip(arena.colors, compressed):
        assert old % 2 == new % 2
        assert new <= old
    for i in range(arena.node_count):
        for j in range(arena.node_count):
            if arena.colors[i] < arena.colors[j]:
                assert compressed[i] <= compressed[j]
            elif arena.colors[i] == arena.colors[j]:
                assert compressed[i] == compressed[j]
    assert static_compress(compressed) == compressed


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=50)
def test_static_compress_is_equivalent(arena):
    compressed = static_compress(arena.colors)
    assert colorings_equivalent(arena, arena.colors, compressed, relation="simple")


def test_all_cycles_even(fig1_arena, data_dir):
    assert not all_cycles_even(fig1_arena)
    assert all_cycles_even(Arena(((1,), (0,)), (0, 2)))
    assert not all_cycles_even(Arena(((0,),), (1,)))


@given(arenas(max_nodes=6, max_color=5))
@settings(max_examples=60)
def test_all_cycles_even_matches_enumeration(arena):
    expected = all(
        cycle_color(arena, cycle) % 2 == 0
        for cycle in enumerate_simple_cycles(arena)
    )
    assert all_cycles_even(arena) == expected


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_exact_output_is_equivalent_to_input(arena):
    colors, _ = rabin(arena)
    assert colorings_equivalent(arena, arena.colors, colors, relation="simple")


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_exact_output_satisfies_fixpoint(arena):
    colors, _ = rabin(arena)
    assert fixpoint_violations(arena, colors, relation="simple") == []


@given(arenas(max_nodes=5, max_color=5))
@settings(max_examples=40)
def test_exact_reaches_brute_force_minimum(arena):
    colors, _ = rabin(arena)
    assert index(colors) == brute_force_rabin_index(arena)


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_abstract_bounds_exact_from_above(arena):
    exact_colors, _ = rabin(arena)
    abstract_colors, _ = rabin(arena, mode=ABSTRACT)
    assert index(abstract_colors) >= index(exact_colors)
    assert index(static_compress(arena.colors)) >= index(abstract_colors)


def test_rabin_a_fig1(fig1_arena):
    assert rabin_a(fig1_arena) == (3, 3, 0, 1, 2)


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_rabin_a_properties(arena):
    relabeled = rabin_a(arena)
    assert len(relabeled) == arena.node_count
    assert max(relabeled) <= index(arena.colors)
    # Every simple cycle keeps the parity of its maximal color.
    for cycle in enumerate_simple_cycles(arena):
        before = max(arena.colors[v] for v in cycle)
        after = max(relabeled[v] for v in cycle)
        assert before % 2 == after % 2


def test_rabin_a_deep_nesting_does_not_recurse():
    n = 1100
    arena = nested_path(n)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert rabin_a(arena) == (0,) * n
    finally:
        sys.setrecursionlimit(old_limit)


def test_all_cycles_even_skips_the_walk_without_odd_colors(monkeypatch):
    arena = nested_path(1100)
    calls = count_tarjan_calls(monkeypatch)
    assert all_cycles_even(arena)
    assert calls == []


def test_abstract_membership_fig1(fig1_game):
    assert abstract_membership(fig1_game, 4)
    assert not abstract_membership(fig1_game, 3)
    with pytest.raises(ValueError, match="at least 1"):
        abstract_membership(fig1_game, 0)


@given(arenas(max_nodes=6, max_color=5))
@settings(max_examples=50)
def test_membership_level_one_is_all_cycles_even(arena):
    assert abstract_membership(arena, 1) == all_cycles_even(arena)
