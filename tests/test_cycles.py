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

from rabinindex.arena import Arena, ParityGame, Solution, cycle_color
from rabinindex.generators import gen_clique, gen_ladder
from rabinindex.cycles import (
    CycleAnswer,
    NodeCapExceeded,
    SearchBudget,
    cycle_through_with_color,
    enumerate_simple_cycles,
    nesting_tree,
    simple_cycle_through_with_color,
    simple_cycle_with_max_color,
    strongly_connected_subsets,
    tarjan_scc,
)

from helpers import (
    arenas,
    blocks_arena,
    count_tarjan_calls,
    count_tarjan_work,
    max_color_on_closed_walk,
    nested_path,
    parity_path,
    random_arena,
    threshold_reach,
    walk_verdict,
    walk_verdict_reference,
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
    # 0 <-> 1 feeding a sink {2} with a self-loop, beside a node 3 on no cycle.
    assert tarjan_scc(((1,), (0, 2), (2,), (0,)), None) == [[2], [0, 1]]


def test_tarjan_allowed_mask():
    assert tarjan_scc(((1,), (0,)), [True, False]) == []
    assert tarjan_scc(((1,), (0,)), [True, True]) == [[0, 1]]


def test_tarjan_singleton_self_loop():
    assert tarjan_scc(((0,),), None) == [[0]]
    assert tarjan_scc(((0,),), [False]) == []


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

    components = tarjan_scc(arena.successors, allowed)
    comp = {u: c for c, members in enumerate(components) for u in members}
    # No node twice, and a node is listed iff it lies on a cycle in the mask.
    assert sum(map(len, components)) == len(comp)
    assert set(comp) == {u for u in range(n) if allowed[u] and reach[u][u]}
    # Each list is a maximal mutually reachable set inside the mask.
    for members in components:
        for u in members:
            assert {w for w in range(n) if reach[u][w] and reach[w][u]} == set(members)
    for u, w in edges:
        if u in comp and w in comp:
            assert comp[u] >= comp[w]  # completion order: sinks first


@given(st.data())
@settings(max_examples=150)
def test_tarjan_from_start_nodes_decomposes_what_they_reach(data):
    # The loop run from some start nodes, with fresh marks, lists the
    # cyclic components of the subgraph they reach, as tarjan_scc does on
    # that subgraph; run again without a list, it labels each node it
    # reached by its component.
    loops = data.draw(st.booleans())
    arena = data.draw(arenas(max_nodes=9, max_degree=3, allow_self_loops=loops))
    n = arena.node_count
    starts = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    reached = set(starts)
    frontier = list(starts)
    while frontier:
        for w in arena.successors[frontier.pop()]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    marks = [-1] * n
    cyclic: list[list[int]] = []
    cycles._tarjan_from(arena.successors, marks, starts, [0] * n, cyclic)
    expected = tarjan_scc(arena.successors, [v in reached for v in range(n)])
    assert sorted(map(sorted, cyclic)) == sorted(map(sorted, expected))
    assert {v for v in range(n) if marks[v] != -1} == reached
    marks = [-1] * n
    cycles._tarjan_from(arena.successors, marks, starts, [0] * n)
    assert {v for v in range(n) if marks[v] != -1} == reached
    assert all(marks[v] >= n for v in reached)
    component = {u: frozenset(members) for members in expected for u in members}
    for u in reached:
        for w in reached:
            same = u == w or (u in component and w in component[u])
            assert (marks[u] == marks[w]) == same


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


def least_enclosing(links, colors) -> list[int | None]:
    """Each node's least enclosing component's least color in the
    :func:`nesting_tree`, None for a node on no closed walk."""
    leaf, low, _ = nesting_tree(links, colors)
    return [low[t] if t >= 0 else None for t in leaf]


def whole_region_claims(arena: Arena):
    """Each player's claim to the whole arena, as a game in which the
    other player owns every node: the region's moves are then every edge,
    so :func:`solver.verify_solution` walks the arena itself."""
    n = arena.node_count
    for s in (0, 1):
        yield ParityGame(arena=arena, owners=(1 - s,) * n), Solution((s,) * n)


@given(arenas(max_nodes=7, allow_self_loops=True), st.data())
@settings(max_examples=100)
def test_closed_walk_minima_matches_brute_force(arena, data):
    # The tree's components are closed walks' node sets with their least
    # colors, and each closed walk lies in one whose least color is at
    # most the walk's and of its parity; so the least closed-walk minimum
    # of a parity, and the nodes at which it is one, read off the tree.
    n = arena.node_count
    allowed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = arena.colors
    walks = [s for s in strongly_connected_subsets(arena) if all(allowed[u] for u in s)]
    induced = [
        [w for w in succ if allowed[v] and allowed[w]] for v, succ in enumerate(arena.successors)
    ]
    leaf, low, up = nesting_tree(induced, c)
    members: list[set[int]] = [set() for _ in low]
    for u, t in enumerate(leaf):
        while t >= 0:
            members[t].add(u)
            t = up[t]
    for t, nodes in enumerate(members):
        assert frozenset(nodes) in walks
        assert min(c[u] for u in nodes) == low[t]
    assert {u for u in range(n) if leaf[u] >= 0} == set().union(*walks)
    for walk in walks:
        d = min(c[u] for u in walk)
        assert any(
            walk <= nodes and low[t] <= d and (d - low[t]) % 2 == 0
            for t, nodes in enumerate(members)
        )
    for parity in (0, 1):
        minima = [min(c[u] for u in walk) for walk in walks]
        d = min((m for m in minima if m % 2 == parity), default=None)
        assert d == min((x for x in low if x % 2 == parity), default=None)
        at_d = {u for walk, m in zip(walks, minima) if m == d for u in walk if c[u] == d}
        assert {u for u in range(n) if leaf[u] >= 0 and c[u] == d == low[leaf[u]]} == at_d


def test_closed_walk_minima_peels_each_level_inside_the_last():
    # Two sibling cycles, one of a single parity run whose higher color
    # stays at its level, and a node on no cycle.
    successors = ((1,), (0,), (3,), (2,), (0,))
    assert least_enclosing(successors, (1, 1, 0, 2, 5)) == [1, 1, 0, 0, None]
    # A path of one parity run is one component; colors 0, 3, 2, 5, 4 nest
    # the 2-cycle of 5 and 4 inside the path, above its run of 0 and 2.
    arena = nested_path(4)
    assert least_enclosing(arena.successors, arena.colors) == [0, 0, 0, 0]
    arena = parity_path(5)
    assert least_enclosing(arena.successors, arena.colors) == [0, 0, 0, 4, 4]


def test_closed_walk_minima_decomposes_once_per_level(monkeypatch):
    # 200 disjoint 2-cycles colored (3, 2): two levels, where a
    # decomposition per component would take 401.
    successors = [[v ^ 1] for v in range(400)]
    calls = count_tarjan_calls(monkeypatch)
    assert least_enclosing(successors, [3 - v % 2 for v in range(400)]) == [2] * 400
    assert len(calls) <= 2


def test_closed_walk_minima_deep_nesting_does_not_recurse():
    # Each 2-cycle of an odd node and the next is one parity run above
    # the last; the path's odd last node joins the 2-cycle before it.
    n = 1100
    arena = parity_path(n)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        lows = least_enclosing(arena.successors, arena.colors)
    finally:
        sys.setrecursionlimit(old_limit)
    assert lows == [0, 0, 0] + [v + v % 2 for v in range(3, n - 1)] + [n - 2]


@given(arenas(max_nodes=8, max_color=9, max_degree=4, allow_self_loops=True))
@settings(max_examples=200)
def test_closed_walk_minima_equals_the_peel(arena):
    for game, solution in whole_region_claims(arena):
        assert walk_verdict(game, solution) == walk_verdict_reference(game, solution)


def test_closed_walk_minima_equals_the_peel_on_deep_paths(monkeypatch):
    # Blocks of up to 80 nested levels, self-loops and ties among them, so
    # every arena's nesting reaches the divide and conquer below the peel.
    calls = count_tarjan_calls(monkeypatch)
    rng = random.Random(2018)
    for _ in range(40):
        arena = blocks_arena(rng)
        for game, solution in whole_region_claims(arena):
            expected = walk_verdict_reference(game, solution)
            del calls[:]
            assert walk_verdict(game, solution) == expected
            assert len(calls) > 2


def test_nesting_tree_tasks_hand_back_unvisited_marks(monkeypatch):
    # Every task of the divide and conquer borrows the tree's one
    # successor table and list of marks, and runs with all nodes unvisited
    # and only its own edges, at its start nodes, in the table: each task
    # before emptied and unmarked every node it touched, and so did the
    # last one before the tree returned.
    borrowed = []
    real = cycles._tarjan_from

    def spy(successors, marks, starts, stack, cyclic=None):
        if cyclic is None:  # a task's run; tarjan_scc collects components
            assert marks.count(-1) == len(marks)
            own = sum(len(successors[v]) for v in set(starts))
            assert own == sum(map(len, successors)) > 0
            borrowed.append((successors, marks))
        return real(successors, marks, starts, stack, cyclic)

    monkeypatch.setattr(cycles, "_tarjan_from", spy)
    rng = random.Random(33)
    for _ in range(20):
        arena = blocks_arena(rng)
        del borrowed[:]
        nesting_tree(arena.successors, arena.colors)
        assert borrowed
        successors, marks = borrowed[0]
        assert all(table is successors and m is marks for table, m in borrowed)
        assert marks.count(-1) == len(marks)
        assert not any(successors)


def test_closed_walk_minima_hands_tarjan_m_log_k_edges(monkeypatch):
    # Two peel runs over all m edges, then each level of the divide and
    # conquer over the path's k parity runs hands each edge on at most
    # once.  One run per level, as the peel does alone, hands about 1 000 m.
    arena = parity_path(4000)
    k = len(cycles._run_starts(sorted(set(arena.colors))))
    _, edges, _ = count_tarjan_work(monkeypatch)
    lows = least_enclosing(arena.successors, arena.colors)
    assert lows[-2:] == [3998, 3998]
    m = sum(map(len, arena.successors))
    assert len(edges) > 2
    assert sum(edges) <= m * ((k - 1).bit_length() + 3)


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


def test_a_query_that_raises_leaves_the_budgets_marks_all_true(fig1_arena, monkeypatch):
    # The search gets the marks with the backward reach unmarked and v
    # marked; however it leaves them, the query marks the reach again.
    budget = SearchBudget(None)
    unmarked = []

    def failing_search(successors, c, blocked, v, gamma, allowance):
        unmarked.extend(u for u, mark in enumerate(blocked) if not mark)
        blocked[v] = True
        raise RuntimeError("search failed")

    monkeypatch.setattr(cycles, "_search", failing_search)
    with pytest.raises(RuntimeError, match="search failed"):
        simple_cycle_through_with_color(fig1_arena, None, 0, 2, budget)
    assert 0 in unmarked
    assert budget.marks == [True] * fig1_arena.node_count


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
                    answer = simple_cycle_through_with_color(
                        arena, None, v, gamma, budget, memo=memo
                    )
                    assert answer is CycleAnswer.YES
                    assert budget.spent == already_spent
                    assert budget.marks == []
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
