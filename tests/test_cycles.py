"""Cycle detection machinery: SCCs, budgeted search, enumeration."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabinindex
from rabinindex import cycles, reduction, solver

from rabinindex.arena import Arena, cycle_color
from rabinindex.generators import gen_clique, gen_ladder
from rabinindex.cycles import (
    CycleAnswer,
    NodeCapExceeded,
    SearchBudget,
    closed_walk_minima,
    cycle_through_with_color,
    enumerate_simple_cycles,
    simple_cycle_through_with_color,
    simple_cycle_with_max_color,
    strongly_connected_subsets,
    tarjan_scc,
)

from helpers import (
    arenas,
    count_tarjan_calls,
    max_color_on_closed_walk,
    nested_path,
    random_arena,
    threshold_reach,
)


def test_cycle_answer_is_not_a_bool():
    with pytest.raises(TypeError):
        bool(CycleAnswer.YES)
    assert CycleAnswer.YES is not CycleAnswer.NO


def test_search_budget_spend():
    budget = SearchBudget(limit=2)
    assert budget.spend()
    assert budget.spend()
    assert not budget.spend()


def test_tarjan_two_components():
    # 0 <-> 1 feeding an isolated sink component {2}
    scc = tarjan_scc(((1,), (0, 2), (2,)), None)
    comp0 = scc.component_of[0]
    assert comp0 == scc.component_of[1] != scc.component_of[2]
    assert scc.nontrivial[comp0]
    assert scc.nontrivial[scc.component_of[2]]  # 2 has a self-loop
    assert sorted(len(m) for m in scc.members) == [1, 2]


def test_tarjan_allowed_mask():
    scc = tarjan_scc(((1,), (0,)), [True, False])
    assert scc.component_of[1] == -1
    assert scc.component_of[0] >= 0
    assert not scc.nontrivial[scc.component_of[0]]


def test_tarjan_singleton_self_loop():
    scc = tarjan_scc(((0,),), None)
    assert scc.nontrivial == (True,)


@given(st.data())
@settings(max_examples=150)
def test_tarjan_matches_brute_force(data):
    loops = data.draw(st.booleans())
    arena = data.draw(arenas(max_nodes=9, max_degree=3, allow_self_loops=loops))
    n = arena.node_count
    allowed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = [(u, w) for u in range(n) for w in arena.successors[u] if allowed[u] and allowed[w]]
    # reach[u][w]: a path of at least one edge from u to w inside the mask.
    reach = [[False] * n for _ in range(n)]
    for u, w in edges:
        reach[u][w] = True
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                for w in range(n):
                    reach[u][w] = reach[u][w] or reach[k][w]

    scc = tarjan_scc(arena.successors, allowed)
    comp = scc.component_of
    for u in range(n):
        assert (comp[u] == -1) == (not allowed[u])
        for w in range(n):
            if allowed[u] and allowed[w] and u != w:
                assert (comp[u] == comp[w]) == (reach[u][w] and reach[w][u])
    for c, members in enumerate(scc.members):
        assert members == tuple(u for u in range(n) if comp[u] == c)
        assert scc.nontrivial[c] == reach[members[0]][members[0]]
    for u, w in edges:
        assert comp[u] >= comp[w]  # reverse topological numbering


def test_simple_cycle_through_fig1(fig1_arena):
    # v4 sits on the 2-cycle with v3 (colors 2, 1).
    assert simple_cycle_through_with_color(fig1_arena, None, 4, 1) is CycleAnswer.YES
    # v1 reaches color 2 through the v1 v2 cycle.
    assert simple_cycle_through_with_color(fig1_arena, None, 1, 2) is CycleAnswer.YES
    # No simple cycle through v0 has minimum exactly 2: its cycles have
    # minima 3 (v0 v1) and 1 (the long cycle).
    assert simple_cycle_through_with_color(fig1_arena, None, 0, 2) is CycleAnswer.NO


def test_simple_cycle_budget_exhaustion(fig1_arena):
    answer = simple_cycle_through_with_color(
        fig1_arena, None, 0, 2, budget=SearchBudget(limit=1)
    )
    assert answer is CycleAnswer.EXHAUSTED


def test_query_validation(fig1_arena):
    with pytest.raises(ValueError, match="out of range"):
        simple_cycle_through_with_color(fig1_arena, None, 9, 0)
    with pytest.raises(ValueError, match="negative"):
        simple_cycle_through_with_color(fig1_arena, None, 0, -1)
    with pytest.raises(ValueError, match="exceeds"):
        simple_cycle_through_with_color(fig1_arena, None, 3, 2)


def test_max_color_checks(fig1_arena):
    assert simple_cycle_with_max_color(fig1_arena)  # v0 v1, both color 3
    assert max_color_on_closed_walk(fig1_arena)
    # On a 2-cycle colored (2, 1) the maximum 2 is on no cycle of color 2.
    lopsided = Arena(((1,), (0,)), (2, 1))
    assert not simple_cycle_with_max_color(lopsided)
    assert not max_color_on_closed_walk(lopsided)


def test_cycle_through_with_color_closed_walks(aidiff_arena):
    # The covering walk y -> x -> z -> x -> y has minimum 1.
    assert cycle_through_with_color(aidiff_arena, None, 2, 1)
    # But no *simple* cycle through z has minimum 1.
    assert (
        simple_cycle_through_with_color(aidiff_arena, None, 2, 1) is CycleAnswer.NO
    )


def test_enumerate_simple_cycles_fig1(fig1_arena):
    cycles = set(enumerate_simple_cycles(fig1_arena))
    assert cycles == {(0, 1), (1, 2), (3, 4), (0, 4, 3, 2, 1)}


def _dead_end(k: int) -> Arena:
    """0 <-> 1, and 1 -> every node of a complete digraph on k nodes, of
    which only the first leads back to 1: most paths into the clique are
    dead ends, the case Johnson's blocking is for."""
    clique = range(2, k + 2)
    succ = [[1], [0, *clique]]
    succ += [[1] * (v == 2) + [w for w in clique if w != v] for v in clique]
    return Arena.from_lists(succ, [0] * (k + 2))


@given(arenas(max_nodes=6, allow_self_loops=True))
@settings(max_examples=100)
def test_enumeration_matches_every_ordering_of_every_subset(arena):
    expected = set()
    for size in range(1, arena.node_count + 1):
        for subset in combinations(range(arena.node_count), size):
            for rest in permutations(subset[1:]):
                try:
                    cycle_color(arena, (subset[0], *rest))
                except ValueError:
                    continue
                expected.add((subset[0], *rest))
    cycles = list(enumerate_simple_cycles(arena))
    assert len(cycles) == len(set(cycles))
    assert set(cycles) == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_clique_cycle_count(n):
    count = sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))
    assert len(list(enumerate_simple_cycles(gen_clique(n).arena))) == count


@pytest.mark.parametrize(
    "arena, count", [(gen_ladder(7).arena, 843), (_dead_end(7), 4323)], ids=["ladder7", "dead_end7"]
)
def test_pinned_cycle_counts(arena, count):
    cycles = list(enumerate_simple_cycles(arena))
    assert len(cycles) == len(set(cycles)) == count


def test_enumerate_respects_cap():
    big = Arena.from_lists(
        [[(v + 1) % 16] for v in range(16)], [0] * 16
    )
    with pytest.raises(NodeCapExceeded):
        list(enumerate_simple_cycles(big))
    with pytest.raises(NodeCapExceeded):
        list(strongly_connected_subsets(big))


def test_strongly_connected_subsets_aidiff(aidiff_arena):
    subsets = set(strongly_connected_subsets(aidiff_arena))
    assert subsets == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    }


def test_strongly_connected_subsets_self_loop():
    arena = Arena(((0,),), (0,))
    assert set(strongly_connected_subsets(arena)) == {frozenset({0})}


@given(arenas(max_nodes=6))
@settings(max_examples=60)
def test_simple_cycle_sets_are_strongly_connected_subsets(arena):
    subsets = set(strongly_connected_subsets(arena))
    for cycle in enumerate_simple_cycles(arena):
        assert frozenset(cycle) in subsets


@given(arenas(max_nodes=7, max_color=6, allow_self_loops=True))
@settings(max_examples=80)
def test_max_color_check_agreement(arena):
    assert simple_cycle_with_max_color(arena) == max_color_on_closed_walk(arena)


@given(arenas(max_nodes=7, allow_self_loops=True), st.data())
@settings(max_examples=100)
def test_closed_walk_minima_matches_brute_force(arena, data):
    n = arena.node_count
    allowed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = arena.colors
    expected = set()
    for subset in strongly_connected_subsets(arena):
        if all(allowed[u] for u in subset):
            low = min(c[u] for u in subset)
            expected |= {u for u in subset if c[u] == low}
    induced = [
        [w for w in succ if allowed[v] and allowed[w]] for v, succ in enumerate(arena.successors)
    ]
    marked = closed_walk_minima(induced, c)
    assert {u for u in range(n) if marked[u]} == expected


def test_closed_walk_minima_peels_each_level_inside_the_last():
    # Two sibling cycles, one peeled whole on a tie, and a node on no cycle:
    # node 3 is left alone once its cycle's least color is peeled.
    successors = ((1,), (0,), (3,), (2,), (0,))
    assert closed_walk_minima(successors, (1, 1, 0, 2, 5)) == [True, True, True, False, False]
    # Each level of the nested path peels one end inside the last level.
    arena = nested_path(4)
    assert closed_walk_minima(arena.successors, arena.colors) == [True, True, True, False]


def test_closed_walk_minima_decomposes_once_per_level(monkeypatch):
    # 200 disjoint 2-cycles colored (3, 2): two levels, where a
    # decomposition per component would take 401.
    successors = [[v ^ 1] for v in range(400)]
    calls = count_tarjan_calls(monkeypatch)
    assert closed_walk_minima(successors, [3 - v % 2 for v in range(400)]) == [False, True] * 200
    assert len(calls) <= 2


def test_closed_walk_minima_deep_nesting_does_not_recurse():
    n = 1100
    arena = nested_path(n)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        marked = closed_walk_minima(arena.successors, arena.colors)
    finally:
        sys.setrecursionlimit(old_limit)
    assert marked == [True] * (n - 1) + [False]


_TRIANGLE = Arena(((1,), (2,), (0,)), (1, 2, 3))


@pytest.mark.parametrize(
    "query, coloring, message",
    [
        pytest.param(query, c, m, id=f"{name}-{case}")
        for name, query in {
            "simple_cycle_with_max_color": simple_cycle_with_max_color,
            "cycle_through_with_color": lambda a, c: cycle_through_with_color(a, c, 0, 1),
            "simple_cycle_through_with_color": (
                lambda a, c: simple_cycle_through_with_color(a, c, 0, 1)
            ),
        }.items()
        for case, (c, m) in {
            "short": ((1, 2), "coloring has 2 entries for 3 nodes"),
            "negative": ((1, -2, 5), "negative color -2 at node 1"),
        }.items()
        # The exact query checks only the length, to stay as cheap as its
        # component: a negative color is below every threshold there.
        if (name, case) != ("simple_cycle_through_with_color", "negative")
    ],
)
def test_cycle_queries_check_the_coloring(query, coloring, message):
    with pytest.raises(ValueError, match=message):
        query(_TRIANGLE, coloring)


def test_exact_query_reads_a_negative_color_as_below_every_threshold():
    answer = simple_cycle_through_with_color(_TRIANGLE, (1, -2, 5), 0, 1)
    assert answer is CycleAnswer.NO


def test_closed_walk_query_hands_back_its_marks_after_yes():
    # The next query of the same size reuses the all-True marks instead of
    # allocating an n-long list.
    cycles._spare_marks.clear()
    assert cycle_through_with_color(_TRIANGLE, None, 0, 1)
    assert cycles._spare_marks[3] == [True] * 3


def test_import_loads_only_the_standard_library():
    src = str(Path(rabinindex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys; before = set(sys.modules); import rabinindex; "
        "top = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(top - sys.stdlib_module_names - {'rabinindex'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@given(arenas(max_nodes=6, max_color=4))
@settings(max_examples=60)
def test_simple_cycle_query_matches_enumeration(arena):
    cycles = list(enumerate_simple_cycles(arena))
    for v in range(arena.node_count):
        for gamma in range(arena.colors[v] + 1):
            expected = any(
                v in cycle and cycle_color(arena, cycle) == gamma for cycle in cycles
            )
            answer = simple_cycle_through_with_color(arena, None, v, gamma)
            assert (answer is CycleAnswer.YES) == expected


@given(arenas(max_nodes=6, max_color=4, allow_self_loops=True))
@settings(max_examples=60)
def test_closed_walk_query_matches_enumeration(arena):
    c = arena.colors
    walks = list(strongly_connected_subsets(arena))
    for v in range(arena.node_count):
        for gamma in range(c[v] + 1):
            expected = any(v in walk and min(c[u] for u in walk) == gamma for walk in walks)
            assert cycle_through_with_color(arena, None, v, gamma) == expected


def _reference_search(arena, v, gamma, budget):
    """Backtracking over simple paths from ``v`` inside its component of
    the color->=gamma subgraph, charging ``budget.spend()`` per push.
    Returns the answer, and the cycle where a search found one."""
    c = arena.colors
    reach = threshold_reach(arena.predecessors, c, v, gamma)
    component = reach & threshold_reach(arena.successors, c, v, gamma)
    on_cycle = any(u in component for u in arena.successors[v])
    if not on_cycle or all(c[u] != gamma for u in component):
        return CycleAnswer.NO, None
    if c[v] == gamma:
        return CycleAnswer.YES, None
    path = [v]
    branches = [iter(sorted(arena.successors[v]))]
    while branches:
        for w in branches[-1]:
            if w == v and any(c[u] == gamma for u in path):
                return CycleAnswer.YES, tuple(path)
            if w not in reach or w in path:
                continue
            if not budget.spend():
                return CycleAnswer.EXHAUSTED, None
            path.append(w)
            branches.append(iter(sorted(arena.successors[w])))
            break
        else:
            path.pop()
            branches.pop()
    return CycleAnswer.NO, None


@given(
    arenas(max_nodes=7, max_color=4, allow_self_loops=True),
    st.sampled_from([0, 1, 2, 7, None]),
    st.integers(0, 3),
)
@settings(max_examples=80)
def test_search_matches_reference_budget(arena, limit, already_spent):
    # The query answers as a search that calls SearchBudget.spend per push
    # and charges the same budget, also when the budget arrives partly
    # spent.
    for v in range(arena.node_count):
        for gamma in range(arena.colors[v] + 1):
            budgets = [SearchBudget(limit, already_spent) for _ in range(2)]
            answer = simple_cycle_through_with_color(arena, None, v, gamma, budgets[0])
            reference, _ = _reference_search(arena, v, gamma, budgets[1])
            assert answer is reference
            assert budgets[0].spent == budgets[1].spent


def _record_arenas(seed: int, count: int) -> list[Arena]:
    rng = random.Random(seed)
    shape = dict(min_nodes=4, max_nodes=8, max_color=4, max_degree=4, allow_self_loops=True)
    return [random_arena(rng, **shape) for _ in range(count)]


# Arenas whose search for (0, 1) crosses between the search's phases, before
# and after a node colored 1 joins the path: successors, colors, the cycle
# found and the pushes it takes.
_PHASE_ARENAS = [
    # 2, colored 1, is pushed and popped after 1 is.
    (((1,), (2, 3), (1,), (0,)), (2, 1, 1, 2), (0, 1, 3), 3),
    # The edge 2 -> 0 comes before any node colored 1 and is skipped; 1 is
    # pushed and popped again.
    (((2,), (2,), (0, 1, 3), (0,)), (2, 1, 2, 1), (0, 2, 3), 3),
    # A self-loop at v.
    (((0, 1), (0,)), (2, 1), (0, 1), 1),
    # 1's self-loop is skipped like any node on the path.
    (((1,), (1, 2), (0,)), (2, 1, 2), (0, 1, 2), 2),
]


@pytest.mark.parametrize("limit", [0, 1, 2, None])
def test_search_finds_the_reference_cycle(monkeypatch, limit):
    # On every query the search answers as the reference does and charges
    # the same budget; on every YES it searched for, it returns the cycle
    # the reference finds, node for node.
    found = []
    search = cycles._search

    def recording(*args):
        answer, expanded, path = search(*args)
        found.append((answer, tuple(path)))
        return answer, expanded, path

    monkeypatch.setattr(cycles, "_search", recording)
    hand = [Arena(succ, colors) for succ, colors, _, _ in _PHASE_ARENAS]
    compared = 0
    for arena in hand + _record_arenas(2024, 120):
        for v in range(arena.node_count):
            for gamma in range(arena.colors[v] + 1):
                found.clear()
                budgets = [SearchBudget(limit) for _ in range(2)]
                answer = simple_cycle_through_with_color(arena, None, v, gamma, budgets[0])
                reference, cycle = _reference_search(arena, v, gamma, budgets[1])
                assert answer is reference
                assert budgets[0].spent == budgets[1].spent
                if cycle is not None:
                    assert found == [(CycleAnswer.YES, cycle)]
                    compared += 1
    # A cycle the search finds takes at least one push.
    assert (compared > 0) == (limit != 0)
    # Each hand-built arena's search for (0, 1) takes the path its comment
    # names.
    for arena, (_, _, cycle, pushes) in zip(hand, _PHASE_ARENAS):
        budget = SearchBudget(None)
        assert _reference_search(arena, 0, 1, budget) == (CycleAnswer.YES, cycle)
        assert budget.spent == pushes


def _backtracked(arena, v, gamma) -> bool:
    """Does the query's search find a cycle only after backtracking?"""
    budget = SearchBudget(None)
    _, cycle = _reference_search(arena, v, gamma, budget)
    return cycle is not None and budget.spent >= len(cycle)


def test_a_repeated_query_takes_the_recorded_search():
    # A YES search that backtracked records the cycle it found.  The same
    # query then answers YES from that cycle without spending budget, even
    # with none left, and without borrowing the marks.  A NO, a YES that
    # needed no search, and a search that never backtracked record nothing.
    recorded = 0
    for arena in _record_arenas(4242, 120):
        for v in range(arena.node_count):
            for gamma in range(arena.colors[v] + 1):
                memo: cycles.CycleRecord = {}
                simple_cycle_through_with_color(
                    arena, None, v, gamma, SearchBudget(None), memo=memo
                )
                searched = _backtracked(arena, v, gamma)
                assert list(memo) == ([(v, gamma)] if searched else [])
                if not searched:
                    continue
                recorded += 1
                for limit, already_spent in ((None, 0), (0, 0), (2, 3)):
                    budget = SearchBudget(limit, already_spent)
                    cycles._spare_marks.clear()
                    answer = simple_cycle_through_with_color(
                        arena, None, v, gamma, budget, memo=memo
                    )
                    assert answer is CycleAnswer.YES
                    assert budget.spent == already_spent
                    assert not cycles._spare_marks
    assert recorded > 0


def _recolorings(arena: Arena, cycle: tuple[int, ...], gamma: int, change: str):
    """Colorings under which the recorded ``cycle`` through ``cycle[0]``
    no longer has least color ``gamma``, each by the named change."""
    c = arena.colors
    if change == "a cycle node below gamma":
        for u in cycle[1:]:
            if c[u] > gamma > 0:
                yield c[:u] + (gamma - 1,) + c[u + 1:]
    elif change == "a gamma node below gamma":
        for u in cycle:
            if c[u] == gamma > 0:
                yield c[:u] + (gamma - 1,) + c[u + 1:]
    elif change == "the gamma nodes above gamma":
        yield tuple(x + 1 if x == gamma and u in cycle else x for u, x in enumerate(c))


@pytest.mark.parametrize(
    "change", ["a cycle node below gamma", "a gamma node below gamma", "the gamma nodes above gamma"]
)
def test_a_changed_reach_or_gamma_node_searches_again(change):
    # Between two queries, a node of the recorded cycle other than v drops
    # below gamma, one of its gamma-colored nodes does, or all of them rise
    # above gamma: the cycle's least color is no longer gamma, so the query
    # searches again as if nothing were recorded.  Some of those searches
    # backtrack to a new cycle, which replaces the record.
    changed = rerecorded = 0
    for arena in _record_arenas(77, 120):
        for v in range(arena.node_count):
            for gamma in range(arena.colors[v] + 1):
                memo: cycles.CycleRecord = {}
                simple_cycle_through_with_color(
                    arena, None, v, gamma, SearchBudget(None), memo=memo
                )
                if (v, gamma) not in memo:
                    continue
                for colors in _recolorings(arena, memo[v, gamma], gamma, change):
                    recolored = arena.with_colors(colors)
                    rerecorded += _assert_searches_again(recolored, v, gamma, dict(memo))
                    changed += 1
    assert changed > rerecorded > 0


def _assert_searches_again(arena, v, gamma, memo) -> bool:
    """Check the query against a fresh search; True where its search
    backtracked to a cycle, which then replaces the record."""
    before = dict(memo)
    budgets = [SearchBudget(None) for _ in range(2)]
    answer = simple_cycle_through_with_color(arena, None, v, gamma, budgets[0], memo=memo)
    expected, cycle = _reference_search(arena, v, gamma, budgets[1])
    assert answer is expected
    assert budgets[0].spent == budgets[1].spent
    if cycle is None or budgets[1].spent < len(cycle):
        assert memo == before
        return False
    assert memo == {**before, (v, gamma): cycle}
    assert cycle_color(arena, cycle) == gamma
    return True


@pytest.mark.parametrize(
    "module, name",
    [
        (reduction, "tarjan_scc"),
        (cycles, "tarjan_scc"),
        (solver, "tarjan_scc"),
        (reduction, "simple_cycle_through_with_color"),
        (reduction, "simple_cycle_with_max_color"),
    ],
)
def test_traced_benchmark_rebinding_points(module, name):
    # perfbench/tracing.py counts these calls by rebinding the name in the
    # calling module, so each must stay a module attribute bound to the
    # cycles function.
    assert getattr(module, name) is getattr(cycles, name)
