"""Rank fixpoint reduction, static compression, and the abstract variants."""

from __future__ import annotations

import hashlib
import random
import time
from bisect import bisect_left
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabinindex import cycles, reduction
from rabinindex.arena import Arena, cycle_color, index
from rabinindex.cycles import (
    DEFAULT_BUDGET,
    CycleAnswer,
    NodeCapExceeded,
    SearchBudget,
    cycle_through_with_color,
    simple_cycle_through_with_color,
    tarjan_scc,
)
from rabinindex.generators import RandomConfig, gen_family, gen_ladder, gen_random
from rabinindex.oracles import (
    brute_force_rabin_index,
    colorings_equivalent,
    equivalence_witness,
    fixpoint_violations,
)
from rabinindex.reduction import (
    OracleMode,
    ReductionAborted,
    ReductionReport,
    _PassState,
    _alpha_form,
    abstract_membership,
    rabin,
    static_compress,
)
from rabinindex.cycles import enumerate_simple_cycles

EXACT = OracleMode.EXACT
ABSTRACT = OracleMode.ABSTRACT

from helpers import (
    alpha_form_reference,
    arenas,
    blocks_arena,
    count_tarjan_calls,
    count_tarjan_work,
    get_anchor,
    nested_path,
    package_lines,
    random_arena,
    replay,
)


def test_exact_reduction_fig1(fig1_arena):
    colors, report = rabin(fig1_arena)
    assert colors == (1, 2, 2, 1, 1)
    assert report.mode == EXACT
    assert report.initial_index == 3
    assert report.final_index == 2
    assert report.iteration_count == 2
    first, second = report.iterations
    assert first.cycle_changes == ((0, 3, 1),)
    assert first.form_changes == ((1, 3, 2), (4, 2, 1))
    assert second.cycle_changes == ()
    assert second.form_changes == ()


def test_abstract_reduction_fig1(fig1_arena):
    # Every closed walk through v4 passes v3, whose color 1 is its least,
    # so v4 drops to 1; nothing else can go lower.
    colors, report = rabin(fig1_arena, mode=ABSTRACT)
    assert colors == (3, 3, 2, 1, 1)
    assert report.mode == ABSTRACT
    assert (report.initial_index, report.final_index) == (3, 3)
    assert report.iteration_count == 0
    assert report.rank_trace == [11, 10]


def test_exact_reduction_chain(chain_arena):
    colors, report = rabin(chain_arena)
    assert colors == (0, 1, 2, 3, 3, 2, 1)
    assert report.iteration_count == 4
    traces = [(it.cycle_changes, it.form_changes) for it in report.iterations]
    assert traces == [
        ((), ((6, 6, 5),)),
        (((6, 5, 1),), ((5, 5, 4),)),
        (((5, 4, 2),), ((4, 4, 3),)),
        ((), ()),
    ]


def test_abstract_reduction_chain(chain_arena):
    # Every color switches parity, so each level peels one node; node 6
    # lies on no cycle of its own and keeps node 5's value.
    colors, report = rabin(chain_arena, mode=ABSTRACT)
    assert colors == (0, 1, 2, 3, 4, 5, 5)
    assert report.iteration_count == 0
    assert report.rank_trace == [21, 20]


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
    # The message names the query, the run's budget, and its queries so
    # far; the budget is the run's, so it holds all the run expanded.
    stats = aborted.report.stats
    assert (aborted.spent, aborted.limit) == (3, 2)
    assert aborted.spent == stats.nodes_expanded
    assert aborted.exact_queries == stats.exact_queries >= 1
    assert not hasattr(aborted, "nodes_expanded")
    # It carries the run's coloring so far, which the report indexes.
    assert aborted.report.final_index == index(aborted.coloring)
    assert colorings_equivalent(fig1_arena, fig1_arena.colors, aborted.coloring)
    assert str(aborted) == (
        f"exact reduction aborted: budget exhausted at node {aborted.node}, "
        f"color {aborted.gamma} after 3 expanded nodes (limit 2) "
        f"over {stats.exact_queries} exact queries"
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
    assert get_anchor(fig1_arena, colors, 3) == -1
    assert get_anchor(fig1_arena, colors, 4) == 1
    assert get_anchor(fig1_arena, colors, 2) == 1
    assert get_anchor(fig1_arena, colors, 0) == -1
    assert get_anchor(fig1_arena, colors, 1) == 2
    # Closed walks find a covering walk of minimum 2 through v0.
    assert cycle_through_with_color(fig1_arena, colors, 0, 2)


def test_exact_anchor_below_a_walk_that_is_no_simple_cycle():
    # At color 3, node 4 lies on the closed walk 4 3 2 1 3 but on no simple
    # cycle; its exact anchor is the cycle 4 3 2 5 0 of color 1, which the
    # anchor must still find after the walk at color 3.
    arena = Arena(((2, 4), (2, 3), (1, 5), (2, 4), (3,), (0, 3)), (2, 3, 4, 5, 4, 1))
    assert cycle_through_with_color(arena, None, 4, 3)
    assert get_anchor(arena, None, 4) == 1


def _reference_anchor(arena, colors, v):
    """Exact anchor by a plain descending scan, one unbudgeted query per gamma."""
    for gamma in range(colors[v] - 1, -1, -2):
        answer = simple_cycle_through_with_color(arena, colors, v, gamma, SearchBudget(None))
        if answer is CycleAnswer.YES:
            return gamma
    return -1


def test_pass_state_anchors_survive_recoloring():
    # One state answers every anchor between random same-parity color
    # decreases of its coloring, given the colors present after each.
    rng = random.Random(2024)
    for _ in range(60):
        arena = random_arena(rng, max_nodes=8, max_color=9, max_degree=3)
        colors = list(arena.colors)
        state = _PassState(arena, colors, None, ReductionReport(EXACT, 0, 0))
        for _ in range(12):
            present = sorted(set(colors))
            for v in rng.sample(range(arena.node_count), arena.node_count):
                assert state.anchor(v, present) == _reference_anchor(arena, colors, v)
            v = rng.randrange(arena.node_count)
            if colors[v] >= 2:
                colors[v] -= 2 * rng.randint(1, colors[v] // 2)


def _gappy_huge_arena(rng: random.Random) -> Arena:
    """A random arena colored from a palette of gappy small colors and
    colors up to 2**61."""
    arena = random_arena(rng, min_nodes=4, max_nodes=12, max_degree=3)
    palette = rng.sample(range(40), 3) + [rng.randrange(2**61) for _ in range(3)]
    return arena.with_colors(rng.choice(palette) for _ in range(arena.node_count))


def test_cycle_pass_hands_each_anchor_the_colors_below_its_node(monkeypatch):
    # A cycle pass visits by ascending color and lowers only the node it
    # visits, so the colors of the nodes it has visited are all the colors
    # below c(v) that any node carries when it reaches v.
    real_anchor = _PassState.anchor
    anchored = []

    def checked_anchor(self, v, present):
        colors = self.colors
        below = present[: bisect_left(present, colors[v])]
        assert below == sorted({c for c in colors if c < colors[v]})
        anchored.append(v)
        return real_anchor(self, v, present)

    monkeypatch.setattr(_PassState, "anchor", checked_anchor)
    rng = random.Random(38)
    cases = [_gappy_huge_arena(rng) for _ in range(60)]
    cases += [gen_family("jurdzinski", (4, 6)).arena, gen_family("recursive_ladder", (30,)).arena]
    for arena in cases:
        del anchored[:]
        _, report = rabin(arena)
        assert len(anchored) == arena.node_count * report.iteration_count
    assert max(c for arena in cases for c in arena.colors) > 2**40


def test_exact_queries_run_no_decomposition_of_their_own(monkeypatch):
    # Only the form passes decompose through cycles, one form in each
    # iteration but a confirming last one, whose cycle pass kept the form
    # before it; each exact query finds its nodes by a backward reach.
    calls = count_tarjan_calls(monkeypatch)
    in_forms = []
    real_form = reduction._alpha_form

    def counted_form(arena, colors):
        before = len(calls)
        form = real_form(arena, colors)
        in_forms.append(len(calls) - before)
        return form

    monkeypatch.setattr(reduction, "_alpha_form", counted_form)
    rng = random.Random(31)
    cases = [gen_family("clique", (30,)).arena]
    cases += [random_arena(rng, min_nodes=6, max_nodes=14, max_color=9) for _ in range(50)]
    queries = 0
    for arena in cases:
        del calls[:], in_forms[:]
        _, report = rabin(arena)
        assert len(in_forms) == max(1, report.iteration_count - 1)
        assert len(calls) == sum(in_forms) > 0
        queries += report.stats.exact_queries
    assert queries > 0


@pytest.mark.parametrize("mode", [EXACT])
def test_rabin_matches_reference_anchor(mode, monkeypatch):
    rng = random.Random(99)
    cases = [random_arena(rng, max_nodes=9, max_color=9) for _ in range(300)]
    results = [rabin(arena, mode=mode) for arena in cases]
    monkeypatch.setattr(
        _PassState,
        "anchor",
        lambda self, v, present: _reference_anchor(self.arena, self.colors, v),
    )
    for arena, (colors, report) in zip(cases, results):
        assert replay(arena.colors, report) == colors
        expected_colors, expected = rabin(arena, mode=mode)
        assert colors == expected_colors
        assert report.rank_trace == expected.rank_trace
        assert report.iterations == expected.iterations


def _exact_outcome(arena: Arena, budget_limit: int | None) -> tuple:
    """An exact run's coloring, or None where it aborts, and its report."""
    try:
        return rabin(arena, budget_limit=budget_limit)
    except ReductionAborted as exc:
        return None, exc.report


def test_reused_searches_change_no_outcome(monkeypatch):
    # Referee for the run's record of found cycles, against runs in which
    # each query searches afresh.  A record hit saves the run's budget for
    # later queries, so the two agree on coloring, trace and query count
    # wherever both finish, and never expand more nodes with the record.
    # Without a budget every run finishes, so there the outcomes are
    # identical.
    rng = random.Random(1906)
    small = [random_arena(rng, max_nodes=9, max_color=9) for _ in range(300)]
    cases = [(arena, limit) for arena in small for limit in (0, 2, 50, None)]
    cases += [
        (gen_family(name, args).arena, DEFAULT_BUDGET)
        for name, args in (("jurdzinski", (4, 6)), ("recursive_ladder", (30,)))
    ]
    results = [_exact_outcome(arena, limit) for arena, limit in cases]
    monkeypatch.setattr(
        reduction,
        "simple_cycle_through_with_color",
        lambda *args, memo=None, **kwargs: cycles.simple_cycle_through_with_color(*args, **kwargs),
    )
    fell = finished = 0
    for (arena, limit), (colors, report) in zip(cases, results):
        expected_colors, expected = _exact_outcome(arena, limit)
        if colors is None:
            # Hits only save budget, so with the record a run aborts no
            # earlier, and only where it aborts without it.
            assert expected_colors is None and limit is not None
            assert report.stats.exact_queries >= expected.stats.exact_queries
            continue
        if expected_colors is None:
            continue
        finished += 1
        assert colors == expected_colors
        assert report.rank_trace == expected.rank_trace
        assert report.iterations == expected.iterations
        assert report.stats.exact_queries == expected.stats.exact_queries
        assert report.stats.nodes_expanded <= expected.stats.nodes_expanded
        fell += report.stats.nodes_expanded < expected.stats.nodes_expanded
    assert finished > len(small) and fell > 0


def test_an_aborted_run_reports_its_interrupted_pass():
    # Random 100/1/20/100 seed 1 runs out in its first cycle pass, having
    # recolored 30 nodes: that pass is the report's one iteration, and
    # replayed from the input it gives the abort's coloring.
    arena = gen_random(RandomConfig.parse("100/1/20/100", seed=1)).arena
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(arena, budget_limit=2 * 10**5)
    aborted = excinfo.value
    (interrupted,) = aborted.report.iterations
    assert len(interrupted.cycle_changes) == 30
    assert interrupted.form_changes == ()
    assert aborted.report.rank_trace == [sum(arena.colors), sum(aborted.coloring)]
    assert replay(arena.colors, aborted.report) == aborted.coloring


def test_one_budget_caps_the_whole_run():
    # Each of ladder 300's exact queries needs 599 pushes.  A budget of 1000
    # covers any one of them, but not two: the run's budget runs out in its
    # second query, one push past the limit.
    arena = gen_ladder(300).arena
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(arena, budget_limit=1000)
    aborted = excinfo.value
    assert (aborted.spent, aborted.limit, aborted.exact_queries) == (1001, 1000, 2)
    assert aborted.report.stats.nodes_expanded == 1001
    _, report = rabin(arena, budget_limit=300 * 599)
    assert (report.stats.exact_queries, report.stats.nodes_expanded) == (300, 300 * 599)


def test_searches_that_never_backtrack_record_nothing():
    # ladder 300's searches each walk straight round their cycle, so the
    # run records none of the 300 cycles of 600 nodes.
    records = []

    def query(*args, memo, **kwargs):
        records.append(memo)
        return cycles.simple_cycle_through_with_color(*args, memo=memo, **kwargs)

    with patch.object(reduction, "simple_cycle_through_with_color", query):
        _, report = rabin(gen_ladder(300).arena)
    assert report.stats.exact_queries == len(records) == 300
    assert records[0] is records[-1] == {}


def test_exact_run_reports_its_reused_searches():
    # jurdzinski 4 6's last passes repeat queries of the passes before: the
    # cycles the first searches found answer them, and each still counts as
    # an exact query.  Searching each afresh expands 1 010 051 nodes.
    colors, report = rabin(gen_family("jurdzinski", (4, 6)).arena)
    assert colors == (1, 2) * 6 + (3, 4) * 6 + (5,) * 4 + (4, 3) * 5 + (4,) + (1, 2) * 5 + (1,)
    assert report.iteration_count == 6
    assert report.stats.exact_queries == 272
    assert report.stats.nodes_expanded == 288_972


def test_jurdzinski_5_10_aborts_at_its_pinned_query():
    # The exact run's pushes are pinned: at a budget of 10^6 it runs out at
    # node 83, gamma 4, in its 167th query, one push past the limit.
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(gen_family("jurdzinski", (5, 10)).arena, budget_limit=10**6)
    aborted = excinfo.value
    assert (aborted.node, aborted.gamma, aborted.exact_queries) == (83, 4, 167)
    assert (aborted.spent, aborted.limit) == (1_000_001, 10**6)
    assert aborted.report.stats.nodes_expanded == 1_000_001


def _checked_query(arena, colors, v, gamma, budget=None, *, memo):
    """The exact query, checking every cycle it records against the
    coloring it was asked under."""
    before = dict(memo)
    answer = cycles.simple_cycle_through_with_color(arena, colors, v, gamma, budget, memo=memo)
    for key, cycle in memo.items():
        if before.get(key) != cycle:
            assert key == (v, gamma) and answer is CycleAnswer.YES
            assert cycle[0] == v and len(set(cycle)) == len(cycle)
            assert cycle_color(arena.with_colors(colors), cycle) == gamma
    return answer


@given(arenas(max_nodes=8, max_color=6, max_degree=4, allow_self_loops=True))
@settings(max_examples=80)
def test_recorded_cycles_are_simple_cycles_of_their_query(arena):
    # Every entry of an exact run's record is a simple cycle through its
    # node along arena edges, whose least color was the query's gamma when
    # it was recorded.
    with patch.object(reduction, "simple_cycle_through_with_color", _checked_query):
        rabin(arena, budget_limit=None)


def test_alpha_reduction_output_is_pinned():
    # The benchmark's seven families and its 24 random-dense games of seed
    # 1: a change to how the form is computed must still give the same
    # colorings.  The indices are also those of the closed-walk fixpoint of
    # cycle and pop passes, an independent optimum of the same relation.
    families = (
        ("clique", (100,)),
        ("ladder", (300,)),
        ("jurdzinski", (4, 6)),
        ("jurdzinski", (5, 10)),
        ("recursive_ladder", (30,)),
        ("model_checker_ladder", (300,)),
        ("tower_of_hanoi", (5,)),
    )
    cases = [gen_family(name, params).arena for name, params in families]
    cases += [
        gen_random(RandomConfig.parse("100/1/20/100", seed=seed)).arena
        for seed in range(1000, 1024)
    ]
    digest = hashlib.sha256()
    indices = []
    for arena in cases:
        colors, report = rabin(arena, mode=ABSTRACT)
        digest.update(repr((colors, report.rank_trace)).encode())
        indices.append(index(colors))
    assert indices == [
        99, 2, 9, 11, 31, 0, 1,
        39, 40, 52, 34, 39, 35, 39, 38, 39, 43, 30, 30,
        34, 32, 39, 20, 44, 40, 36, 42, 37, 36, 35, 34,
    ]
    assert digest.hexdigest() == (
        "9b29d0c9e05ac966d7d11915ea5a2dea78156723a87ddb8b11e3006e032f4c35"
    )


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


@pytest.mark.parametrize(
    "arena, runs",
    [
        # All even: one component, nothing of the other parity to keep live.
        pytest.param(nested_path(1100), 1, id="nested_path"),
        # Colors 1 and 2: the ring, then what is left of it above color 1.
        pytest.param(gen_family("ladder", (1000,)).arena, 2, id="ladder"),
        # Two runs per component: the peel's two levels, no divide and
        # conquer.
        pytest.param(gen_family("tower_of_hanoi", (5,)).arena, 2, id="tower_of_hanoi"),
        # 200 components, each split at its one switch to color 3.
        pytest.param(
            Arena.from_lists([[v ^ 1] for v in range(400)], [3, 2] * 200), 2, id="two_cycles"
        ),
    ],
)
def test_alpha_form_decomposes_once_per_parity_switch(arena, runs, monkeypatch):
    calls = count_tarjan_calls(monkeypatch)
    rabin(arena, mode=ABSTRACT)
    assert len(calls) <= runs


def _run_counts(arena: Arena) -> set[int]:
    """Parity runs among the colors of each cyclic component."""
    counts = set()
    for comp in tarjan_scc(arena.successors):
        present = sorted({arena.colors[u] for u in comp})
        counts.add(1 + sum((b - a) % 2 for a, b in zip(present, present[1:])))
    return counts


def test_alpha_form_equals_the_per_switch_reference():
    # The divide and conquer against one decomposition per parity switch,
    # on arenas of up to about 300 nodes: self-loops, contracted ones
    # included, and components of unequal run counts in one task tree.
    rng = random.Random(2017)
    for _ in range(60):
        arena = blocks_arena(rng)
        form = _alpha_form(arena, arena.colors)
        assert form == alpha_form_reference(arena)
        assert len(_run_counts(arena)) >= 3
        assert max(form) >= 20


@pytest.mark.parametrize(
    "arena, runs",
    [
        pytest.param(
            Arena.from_lists(
                [[w for w in (v - 1, v + 1) if 0 <= w < 2000] for v in range(2000)], range(2000)
            ),
            2000,
            id="path_0_to_n",
        ),
        pytest.param(gen_family("clique", (100,)).arena, 100, id="clique_100"),
    ],
)
def test_alpha_form_hands_tarjan_m_log_k_edges(arena, runs, monkeypatch):
    # One decomposition of all m edges, then each level of the divide and
    # conquer hands each edge on at most once.  A decomposition per parity
    # switch hands about 166 and 12.5 times this bound.
    _, edges, _ = count_tarjan_work(monkeypatch)
    rabin(arena, mode=ABSTRACT)
    m = sum(map(len, arena.successors))
    assert sum(edges) <= m * ((runs - 1).bit_length() + 1)


def _disjoint_two_cycles(k: int) -> Arena:
    succ = [(v ^ 1,) for v in range(2 * k)]
    return Arena.from_lists(succ, [3, 2] * k)


def test_exact_query_work_follows_its_component():
    # Each 3-colored node asks one exact query whose component is its own
    # 2-cycle, so four times the pairs run four times the lines (324 168
    # and 1 296 168); a query that scanned all n nodes would make it about
    # sixteen times.
    small, large = _disjoint_two_cycles(1000), _disjoint_two_cycles(4000)
    lines = [package_lines(lambda arena=arena: rabin(arena)) for arena in (small, large)]
    assert lines[1] <= 4.5 * lines[0]


def test_exact_queries_of_a_run_borrow_one_marks_list(monkeypatch):
    # The run's budget lends every query the same list: past the first
    # query none allocates an n-long list of its own.
    borrowed = []
    real = cycles._outside_walk_reach

    def spy(arena, c, v, gamma, marks):
        borrowed.append(marks)
        return real(arena, c, v, gamma, marks)

    monkeypatch.setattr(cycles, "_outside_walk_reach", spy)
    _, report = rabin(_disjoint_two_cycles(500))
    assert len(borrowed) == report.stats.exact_queries == 500
    assert all(marks is borrowed[0] for marks in borrowed)


def test_exact_query_time_follows_its_component():
    # The wall-clock face of the line count above: the minimum of fifteen
    # alternating runs each, the order flipped each round.  The rounds take
    # about a second, so one slow stretch of a shared machine can fail the
    # bound only if it slows every large run and no small one over that
    # whole second.
    small, large = _disjoint_two_cycles(1000), _disjoint_two_cycles(4000)
    times = {small: [], large: []}
    for round_ in range(15):
        for arena in (small, large) if round_ % 2 else (large, small):
            start = time.perf_counter()
            rabin(arena)
            times[arena].append(time.perf_counter() - start)
    assert min(times[large]) < 8 * min(times[small])


def test_exact_queries_hand_back_all_true_marks(monkeypatch):
    # A query unmarks only its backward reach and marks it again before it
    # answers YES, NO or EXHAUSTED, so the run's marks block every node
    # when each query starts, and after the last one.
    lent = []
    real = cycles._outside_walk_reach

    def spy(arena, c, v, gamma, marks):
        assert all(marks)
        lent.append(marks)
        return real(arena, c, v, gamma, marks)

    monkeypatch.setattr(cycles, "_outside_walk_reach", spy)
    rng = random.Random(17)
    for _ in range(200):
        arena = random_arena(rng, max_nodes=9, max_color=9, allow_self_loops=True)
        lent.clear()
        try:
            rabin(arena, budget_limit=rng.choice([0, 2, None]))
        except ReductionAborted:
            pass
        assert all(map(all, lent))


# Every entry point that takes a caller's coloring for an arena, each given
# a too-short, a too-long and a negative coloring of the 5-node running
# example; static_compress has no arena, so only its negative case applies.
_ENTRY_POINTS = {
    "rabin": lambda arena, c: rabin(arena, c, mode=EXACT),
    "rabin-alpha": lambda arena, c: rabin(arena, c, mode=OracleMode.ABSTRACT),
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


def test_static_compress_refuses_an_empty_coloring():
    with pytest.raises(ValueError, match="^coloring is empty$"):
        static_compress(())


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


# The k = 1 question, whether every cycle is even, is abstract membership
# at level 1: a simple cycle of odd color exists iff a closed walk of odd
# color does.
def test_all_cycles_even(fig1_arena):
    assert not abstract_membership(fig1_arena, 1)
    assert abstract_membership(Arena(((1,), (0,)), (0, 2)), 1)
    assert not abstract_membership(Arena(((0,),), (1,)), 1)


@given(arenas(max_nodes=6, max_color=5))
@settings(max_examples=60)
def test_all_cycles_even_matches_enumeration(arena):
    expected = all(
        cycle_color(arena, cycle) % 2 == 0
        for cycle in enumerate_simple_cycles(arena)
    )
    assert abstract_membership(arena, 1) == expected


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_exact_output_is_equivalent_to_input(arena):
    colors, _ = rabin(arena)
    assert colorings_equivalent(arena, arena.colors, colors, relation="simple")


@given(arenas(max_nodes=6, max_color=6))
@settings(max_examples=60)
def test_exact_output_satisfies_fixpoint(arena):
    colors, report = rabin(arena)
    assert fixpoint_violations(arena, colors, relation="simple") == []
    # Each iteration lowers its cycle pass's result to that result's alpha
    # form, so it ends on a coloring that is its own form.
    c = list(arena.colors)
    for iteration in report.iterations:
        for v, _, new in iteration.cycle_changes:
            c[v] = new
        for v, old, new in iteration.form_changes:
            assert new < old == c[v]
            c[v] = new
        assert _alpha_form(arena, c) == tuple(c)
    assert tuple(c) == colors


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


@given(arenas(max_nodes=8, max_color=6))
@settings(max_examples=60)
def test_alpha_form_index_is_the_brute_force_alpha_index(arena):
    form, _ = rabin(arena, mode=ABSTRACT)
    assert index(form) == brute_force_rabin_index(arena, relation="alpha")


@given(arenas(max_nodes=8, max_color=6))
@settings(max_examples=60)
def test_alpha_form_is_an_equivalent_lowering_and_idempotent(arena):
    form, _ = rabin(arena, mode=ABSTRACT)
    assert colorings_equivalent(arena, arena.colors, form, relation="alpha")
    assert all(new <= old for new, old in zip(form, arena.colors))
    assert rabin(arena, form, mode=ABSTRACT)[0] == form


def test_alpha_form_is_pointwise_least_in_its_class():
    # Every coloring up to the input's greatest color that is alpha-
    # equivalent to the input lies pointwise at or above the form.
    rng = random.Random(29)
    for _ in range(30):
        arena = random_arena(rng, max_nodes=5, max_color=rng.choice((2, 3, 4)), allow_self_loops=True)
        form = _alpha_form(arena, arena.colors)
        for other in product(range(max(arena.colors) + 1), repeat=arena.node_count):
            if colorings_equivalent(arena, arena.colors, other, relation="alpha"):
                assert all(f <= o for f, o in zip(form, other)), other


@given(arenas(max_nodes=8, max_color=6), st.data())
@settings(max_examples=80)
def test_equal_alpha_forms_are_alpha_equivalence(arena, data):
    # Even offsets keep each parity but may move a cycle's least node; an
    # odd one flips a parity.  So both answers occur.
    offsets = data.draw(
        st.lists(st.sampled_from((0, 2, 1)), min_size=arena.node_count, max_size=arena.node_count)
    )
    other = tuple(c + d for c, d in zip(arena.colors, offsets))
    same = rabin(arena, mode=ABSTRACT)[0] == rabin(arena, other, mode=ABSTRACT)[0]
    assert same == colorings_equivalent(arena, arena.colors, other, relation="alpha")


def test_all_cycles_even_skips_the_walk_without_odd_colors(monkeypatch):
    # With no odd color the form is all 0, below every bound k >= 1.
    arena = nested_path(1100)
    calls = count_tarjan_calls(monkeypatch)
    assert all(abstract_membership(arena, k) for k in (1, 2, 5))
    assert calls == []


def test_abstract_membership_fig1(fig1_game):
    assert abstract_membership(fig1_game, 4)
    assert not abstract_membership(fig1_game, 3)
    with pytest.raises(ValueError, match="at least 1"):
        abstract_membership(fig1_game, 0)


@given(arenas(max_nodes=6, max_color=5))
@settings(max_examples=50)
def test_membership_level_one_is_all_cycles_even(arena):
    form, _ = rabin(arena, mode=ABSTRACT)
    assert abstract_membership(arena, 1) == (not any(form))
