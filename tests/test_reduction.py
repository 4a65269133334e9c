"""Rank fixpoint reduction, static compression, and the abstract variants."""

from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import given, settings

from rabinindex import cycles, reduction
from rabinindex.arena import Arena, cycle_color, index
from rabinindex.cycles import (
    CycleAnswer,
    NodeCapExceeded,
    SearchBudget,
    cycle_through_with_color,
    simple_cycle_through_with_color,
    tarjan_scc,
)
from rabinindex.generators import gen_family
from rabinindex.oracles import (
    brute_force_rabin_index,
    colorings_equivalent,
    equivalence_witness,
    fixpoint_violations,
)
from rabinindex.reduction import (
    OracleMode,
    OracleStats,
    ReductionAborted,
    _PassState,
    abstract_membership,
    all_cycles_even,
    rabin,
    rabin_a,
    static_compress,
)
from rabinindex.cycles import enumerate_simple_cycles

EXACT = OracleMode.EXACT
ABSTRACT = OracleMode.ABSTRACT

from helpers import (
    arenas,
    count_tarjan_calls,
    get_anchor,
    nested_path,
    rabin_a_reference,
    random_arena,
)


def test_exact_reduction_fig1(fig1_arena):
    colors, report = rabin(fig1_arena)
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
    assert 0 <= aborted.node < 5
    assert aborted.gamma >= 0
    assert aborted.report.mode == EXACT
    # The message names the query, its budget, and the run's work so far.
    stats = aborted.report.stats
    assert (aborted.spent, aborted.limit) == (3, 2)
    assert aborted.nodes_expanded == stats.nodes_expanded >= aborted.spent
    assert aborted.exact_queries == stats.exact_queries >= 1
    assert str(aborted) == (
        f"exact reduction aborted: budget exhausted at node {aborted.node}, "
        f"color {aborted.gamma} after 3 expanded nodes (limit 2); "
        f"{stats.nodes_expanded} expanded over {stats.exact_queries} exact queries"
    )


def test_rabin_rejects_a_negative_budget(fig1_arena):
    with pytest.raises(ValueError, match="negative"):
        rabin(fig1_arena, budget_limit=-1)
    with pytest.raises(ValueError, match="negative"):
        get_anchor(fig1_arena, None, 0, budget_limit=-3)


def test_zero_budget_answers_queries_that_need_no_search():
    # The only cycle through node 1 at color 0 is the 2-cycle 0 1: the
    # search finds it by one push, so a budget of 0 aborts there.  The
    # second arena's only cycles are self-loops, so no anchor needs a
    # search and the run completes.
    two_cycle = Arena(((1,), (0,)), (0, 1))
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(two_cycle, budget_limit=0)
    assert (excinfo.value.node, excinfo.value.gamma) == (1, 0)
    assert excinfo.value.spent == 1
    loops = Arena(((0, 1), (1,)), (3, 2))
    colors, report = rabin(loops, budget_limit=0)
    assert report.stats.nodes_expanded == 0
    assert colors == rabin(loops)[0]


def test_get_anchor_fig1(fig1_arena):
    colors = list(fig1_arena.colors)
    assert get_anchor(fig1_arena, colors, 3, mode=EXACT) == -1
    assert get_anchor(fig1_arena, colors, 4, mode=EXACT) == 1
    assert get_anchor(fig1_arena, colors, 2, mode=EXACT) == 1
    assert get_anchor(fig1_arena, colors, 0, mode=EXACT) == -1
    assert get_anchor(fig1_arena, colors, 1, mode=EXACT) == 2
    # Closed walks find a covering walk of minimum 2 through v0.
    assert get_anchor(fig1_arena, colors, 0, mode=ABSTRACT) == 2


def test_exact_anchor_below_a_walk_that_is_no_simple_cycle():
    # At color 3, node 4 lies on the closed walk 4 3 2 1 3 but on no simple
    # cycle; its exact anchor is the cycle 4 3 2 5 0 of color 1, which the
    # reach must still find after stopping at the walk.
    arena = Arena(((2, 4), (2, 3), (1, 5), (2, 4), (3,), (0, 3)), (2, 3, 4, 5, 4, 1))
    assert get_anchor(arena, None, 4, mode=ABSTRACT) == 3
    assert get_anchor(arena, None, 4, mode=EXACT) == 1


def _reference_anchor(arena, colors, v, mode):
    """Anchor by a plain descending scan, one independent query per gamma."""
    for gamma in range(colors[v] - 1, -1, -2):
        if mode is ABSTRACT:
            hit = cycle_through_with_color(arena, colors, v, gamma)
        else:
            budget = SearchBudget(None)
            hit = simple_cycle_through_with_color(arena, colors, v, gamma, budget)
            hit = hit is CycleAnswer.YES
        if hit:
            return gamma
    return -1


@pytest.mark.parametrize("mode", [ABSTRACT, EXACT])
def test_pass_state_anchors_survive_recoloring(mode):
    # One state answers every anchor between random same-parity color
    # decreases, so later answers come from reaches, from decompositions
    # cached before a recoloring, and from ones rebuilt after it.
    rng = random.Random(2024)
    builds = kept = 0
    for _ in range(60):
        arena = random_arena(rng, max_nodes=8, max_color=9, max_degree=3)
        colors = list(arena.colors)
        state = _PassState(arena, colors, mode, None, OracleStats())
        for _ in range(12):
            for v in rng.sample(range(arena.node_count), arena.node_count):
                assert state.anchor(v) == _reference_anchor(arena, colors, v, mode)
            v = rng.randrange(arena.node_count)
            if colors[v] >= 2:
                cached = set(state._scc_cache)
                state.set_color(v, colors[v] - 2 * rng.randint(1, colors[v] // 2))
                kept += len(cached & set(state._scc_cache))
            for gamma, scc in state._scc_cache.items():
                fresh = tarjan_scc(arena.successors, [c >= gamma for c in colors])
                assert scc == fresh, f"stale decomposition at threshold {gamma}"
        builds += state.stats.scc_builds
    assert builds > 0 and kept > 0


def test_exact_queries_run_no_decomposition_of_their_own(monkeypatch):
    # Only the pop pass's max-color checks decompose through cycles; each
    # exact query finds its nodes by a backward reach.
    calls = count_tarjan_calls(monkeypatch)
    rng = random.Random(31)
    cases = [gen_family("clique", (30,)).arena]
    cases += [random_arena(rng, min_nodes=6, max_nodes=14, max_color=9) for _ in range(50)]
    queries = 0
    for arena in cases:
        del calls[:]
        _, report = rabin(arena)
        assert len(calls) == report.stats.max_color_checks
        queries += report.stats.exact_queries
    assert queries > 0


@pytest.mark.parametrize("mode", [ABSTRACT, EXACT])
def test_rabin_matches_reference_anchor(mode, monkeypatch):
    rng = random.Random(99)
    cases = [random_arena(rng, max_nodes=9, max_color=9) for _ in range(300)]
    results = [rabin(arena, mode=mode) for arena in cases]
    monkeypatch.setattr(
        _PassState,
        "anchor",
        lambda self, v: _reference_anchor(self.arena, self.colors, v, self.mode),
    )
    for arena, (colors, report) in zip(cases, results):
        expected_colors, expected = rabin(arena, mode=mode)
        assert colors == expected_colors
        assert report.rank_trace == expected.rank_trace
        assert report.iterations == expected.iterations


@pytest.mark.parametrize("mode", [ABSTRACT, EXACT])
def test_huge_priorities_reduce_like_small_ones(mode):
    # An anchor scans only the colors present, so its time does not grow
    # with the priority values.  An even shift keeps every parity and the
    # order of the colors, so the reduced colorings agree.
    rng = random.Random(5)
    cases = [random_arena(rng, max_nodes=8, max_color=6) for _ in range(20)]
    expected = [rabin(arena, mode=mode)[0] for arena in cases]
    start = time.perf_counter()
    for offset in (2 * 10**7, 10**9):
        for arena, colors in zip(cases, expected):
            shifted = arena.with_colors(c + offset for c in arena.colors)
            assert rabin(shifted, mode=mode)[0] == colors
    assert time.perf_counter() - start < 2.0


def _alpha_anchor_work(layers: int) -> int:
    arena = gen_family("ladder", (layers,)).arena
    _, report = rabin(arena, mode=ABSTRACT)
    size = arena.node_count + sum(len(succ) for succ in arena.successors)
    return report.stats.reach_steps + report.stats.scc_builds * size


def test_alpha_anchor_work_is_linear_on_ladders():
    # Every closed walk of a ladder wraps the whole ring, so reaches alone
    # would cost n steps per node; the decomposition they pay for keeps the
    # anchor work linear.
    assert _alpha_anchor_work(1000) <= 2.5 * _alpha_anchor_work(500)


def _disjoint_two_cycles(k: int) -> Arena:
    succ = [(v ^ 1,) for v in range(2 * k)]
    return Arena.from_lists(succ, [3, 2] * k)


def test_exact_query_time_follows_its_component():
    # Each 3-colored node asks one exact query whose component is its own
    # 2-cycle; the queries must not each pay for the whole arena, which
    # would make four times the pairs cost about sixteen times as much.
    small, large = _disjoint_two_cycles(1000), _disjoint_two_cycles(4000)
    times = {small: [], large: []}
    for _ in range(3):
        for arena, spent in times.items():
            start = time.perf_counter()
            rabin(arena)
            spent.append(time.perf_counter() - start)
    assert min(times[large]) < 8 * min(times[small])


def test_report_rendering(fig1_arena):
    _, report = rabin(fig1_arena)
    text = report.to_text()
    assert "initial index 3" in text
    assert "final index 2" in text
    assert "cycle: v0 3->1 | pop: v1 3->2" in text


# Every entry point that takes a caller's coloring for an arena, each given
# a too-short, a too-long and a negative coloring of the 5-node running
# example; static_compress has no arena, so only its negative case applies.
_ENTRY_POINTS = {
    "rabin": lambda arena, c: rabin(arena, c, mode=EXACT),
    "rabin-alpha": lambda arena, c: rabin(arena, c, mode=OracleMode.ABSTRACT),
    "rabin_a": rabin_a,
    "all_cycles_even": all_cycles_even,
    "brute_force_rabin_index": brute_force_rabin_index,
    "equivalence_witness": lambda arena, c: equivalence_witness(arena, arena.colors, c),
    "fixpoint_violations": fixpoint_violations,
}
_BAD_COLORINGS = {
    "short": ((1, 2), "coloring has 2 entries for 5 nodes"),
    "long": ((1, 2, 3, 4, 5, 6), "coloring has 6 entries for 5 nodes"),
    "negative": ((1, -2, 3, 4, 5), "negative color -2 at node 1"),
}


@pytest.mark.parametrize(
    "entry, coloring, message",
    [
        pytest.param(entry, c, m, id=f"{name}-{case}")
        for name, entry in _ENTRY_POINTS.items()
        for case, (c, m) in _BAD_COLORINGS.items()
    ]
    + [
        pytest.param(
            lambda arena, c: static_compress(c),
            (1, -3),
            "negative color -3 at node 1",
            id="static_compress-negative",
        )
    ],
)
def test_entry_points_check_the_coloring(fig1_arena, entry, coloring, message):
    with pytest.raises(ValueError, match=message):
        entry(fig1_arena, coloring)


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


@given(arenas(min_nodes=1, max_nodes=8, max_color=6, allow_self_loops=True))
@settings(max_examples=150)
def test_rabin_a_matches_the_component_tree(arena):
    assert rabin_a(arena) == rabin_a_reference(arena)


def test_rabin_a_decomposes_once_per_level(monkeypatch):
    # 200 disjoint 2-cycles colored (3, 2): the forest has two levels, where
    # a decomposition per component would take 401.
    arena = Arena.from_lists([[v ^ 1] for v in range(400)], [3 - v % 2 for v in range(400)])
    calls = []
    for module in (cycles, reduction):

        def counting(successors, allowed=None, real=module.tarjan_scc):
            calls.append(len(successors))
            return real(successors, allowed)

        monkeypatch.setattr(module, "tarjan_scc", counting)
    assert rabin_a(arena) == (1, 0) * 200
    assert len(calls) <= 2


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
