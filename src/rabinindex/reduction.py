"""Color reductions that preserve winning behavior of parity games.

Two colorings of the same arena are equivalent when every simple cycle has
the same parity of minimal color under both; the Rabin index of a coloring
is the smallest index among equivalent colorings.  :func:`rabin` lowers a
coloring to that minimum using exact simple-cycle queries.  In ``alpha``
mode it minimizes over the coarser relation of all closed walks instead,
in polynomial time: that relation is the one of parity automata, so its
optimum is a canonical form read off the nested strongly connected
components (see :func:`_alpha_form`).

The remaining entry points are cheaper companions: :func:`static_compress`
squeezes gaps out of the color value set without looking at edges,
:func:`all_cycles_even` decides whether the index can drop to zero, and
:func:`rabin_a` is the Carton-Maceiras reduction known from parity word
automata (which classify runs by maximal recurring color; on min-parity
arenas it serves as an index baseline, see :func:`rabin_a`).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

from .arena import Arena, Coloring, NodeId, ParityGame, check_coloring, index
from .cycles import (
    DEFAULT_BUDGET,
    CycleAnswer,
    SearchBudget,
    component_forest,
    simple_cycle_through_with_color,
    simple_cycle_with_max_color,
    tarjan_scc,
)

__all__ = [
    "OracleMode",
    "OracleStats",
    "IterationTrace",
    "ReductionReport",
    "ReductionAborted",
    "rabin",
    "static_compress",
    "all_cycles_even",
    "rabin_a",
    "abstract_membership",
]

Change = tuple[NodeId, int, int]  # node, old color, new color


class OracleMode(enum.Enum):
    """Which cycles keep their parity: simple ones (exact) or closed walks (alpha)."""

    EXACT = "exact"
    ABSTRACT = "alpha"


@dataclass
class OracleStats:
    exact_queries: int = 0
    # Always 0: alpha mode computes its form without per-node queries.  The
    # benchmark's report (perfbench/worker.py) still reads the counter.
    abstract_queries: int = 0
    max_color_checks: int = 0
    nodes_expanded: int = 0


@dataclass
class IterationTrace:
    cycle_changes: tuple[Change, ...]
    pop_changes: tuple[Change, ...]


@dataclass
class ReductionReport:
    """Per-run trace of :func:`rabin`.

    ``rank_trace`` holds the color sum before the loop and after each
    iteration; it strictly decreases except for the final confirming entry.
    Alpha mode has no iterations, and records the sum before and after.
    """

    mode: OracleMode
    initial_index: int
    final_index: int
    rank_trace: list[int] = field(default_factory=list)
    iterations: list[IterationTrace] = field(default_factory=list)
    stats: OracleStats = field(default_factory=OracleStats)

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    def to_text(self) -> str:
        def fmt(changes: tuple[Change, ...]) -> str:
            if not changes:
                return "-"
            return " ".join(f"v{v} {old}->{new}" for v, old, new in changes)

        lines = [f"initial index {self.initial_index}"]
        for i, it in enumerate(self.iterations, start=1):
            lines.append(
                f"iteration {i}: cycle: {fmt(it.cycle_changes)} | pop: {fmt(it.pop_changes)}"
            )
        lines.append(f"final index {self.final_index}")
        return "\n".join(lines)


class ReductionAborted(RuntimeError):
    """An exact simple-cycle query ran out of search budget, so the exact
    reduction gave up.

    ``spent`` and ``limit`` are the aborting query's budget; the run's
    ``nodes_expanded`` and ``exact_queries`` so far include that query.
    :func:`rabin` attaches its partial ``report`` for inspection.
    """

    def __init__(
        self,
        node: NodeId,
        gamma: int,
        spent: int,
        limit: int | None,
        nodes_expanded: int,
        exact_queries: int,
    ):
        self.node = node
        self.gamma = gamma
        self.spent = spent
        self.limit = limit
        self.nodes_expanded = nodes_expanded
        self.exact_queries = exact_queries
        self.report: ReductionReport | None = None
        super().__init__(
            f"exact reduction aborted: budget exhausted at node {node}, color {gamma} "
            f"after {spent} expanded nodes (limit {limit}); {nodes_expanded} expanded "
            f"over {exact_queries} exact queries"
        )


class _PassState:
    """Shared bookkeeping for one exact reduction run, and its anchor oracle.

    Tracks how many nodes carry each color, and the sorted list of colors
    in use, so an anchor scans only the colors present.
    """

    def __init__(
        self, arena: Arena, colors: list[int], budget_limit: int | None, stats: OracleStats
    ):
        if budget_limit is not None and budget_limit < 0:
            raise ValueError(f"budget limit {budget_limit} is negative")
        self.arena = arena
        self.colors = colors
        self.budget_limit = budget_limit
        self.stats = stats
        self.color_count: Counter[int] = Counter(colors)
        self._present = sorted(self.color_count)

    def set_color(self, v: NodeId, new: int) -> None:
        old = self.colors[v]
        if new == old:
            return
        self.color_count[old] -= 1
        if not self.color_count[old]:
            self._present.pop(bisect_left(self._present, old))
        if not self.color_count[new]:
            insort(self._present, new)
        self.color_count[new] += 1
        self.colors[v] = new

    def _simple_cycle(self, v: NodeId, gamma: int) -> bool:
        budget = SearchBudget(self.budget_limit)
        answer = simple_cycle_through_with_color(self.arena, self.colors, v, gamma, budget)
        stats = self.stats
        stats.exact_queries += 1
        stats.nodes_expanded += budget.spent
        if answer is CycleAnswer.EXHAUSTED:
            raise ReductionAborted(
                v, gamma, budget.spent, budget.limit, stats.nodes_expanded, stats.exact_queries
            )
        return answer is CycleAnswer.YES

    def anchor(self, v: NodeId) -> int:
        """Largest color gamma of opposite parity below c(v) such that some
        simple cycle through v has color exactly gamma; -1 if there is none.

        A query answers NO without search, and spends no budget, where no
        closed walk through v has color gamma."""
        c_v = self.colors[v]
        present = self._present
        for i in range(bisect_left(present, c_v) - 1, -1, -1):
            gamma = present[i]
            if (c_v - gamma) % 2 and self._simple_cycle(v, gamma):
                return gamma
        return -1

    def run_cycle_pass(self) -> tuple[Change, ...]:
        colors = self.colors
        order = sorted(range(self.arena.node_count), key=lambda v: (colors[v], v))
        changes: list[Change] = []
        for v in order:
            j = self.anchor(v)
            new = colors[v] % 2 if j == -1 else j + 1
            if new != colors[v]:
                changes.append((v, colors[v], new))
                self.set_color(v, new)
        return tuple(changes)

    def run_pop_pass(self) -> tuple[Change, ...]:
        colors = self.colors
        first_old: dict[NodeId, int] = {}
        m = max(colors)
        while True:
            self.stats.max_color_checks += 1
            if simple_cycle_with_max_color(self.arena, colors):
                break
            assert m > 0, "a total arena always has a cycle at the minimal color"
            for v, c in enumerate(colors):
                if c == m:
                    first_old.setdefault(v, c)
                    self.set_color(v, m - 1)
            m -= 1
        return tuple((v, old, colors[v]) for v, old in sorted(first_old.items()))


def _alpha_form(arena: Arena, colors: Sequence[int]) -> Coloring:
    """The pointwise least coloring alpha-equivalent to ``colors``: the
    min-parity form of Carton and Maceiras's reduction (RAIRO-ITA 33(6),
    1999), since closed walks are the strongly connected node sets.

    Each level runs one :func:`tarjan_scc` over the live nodes and gives
    every nontrivial component ``base + (least color - base) % 2``, where
    ``base`` is the value of the component that held it (0 at first).  Only
    its nodes at or above its least color of the other parity stay live, so
    the pass costs one run per parity switch of the nesting.  The runs go
    over ``arena.predecessors``: the reverse graph has the same components,
    and the exact search and the solver build that index anyway, so timing
    this pass charges it no work another stage would otherwise do.
    """
    n = arena.node_count
    form = [0] * n
    live: list[bool] | None = None
    while True:
        scc = tarjan_scc(arena.predecessors, live)
        live = [False] * n
        for comp, nontrivial in zip(scc.members, scc.nontrivial):
            if not nontrivial:
                continue
            low = min(colors[u] for u in comp)
            value = form[comp[0]] + (low - form[comp[0]]) % 2
            switch = min((colors[u] for u in comp if (colors[u] - low) % 2), default=inf)
            for u in comp:
                form[u] = value
                live[u] = colors[u] >= switch
        if not any(live):
            return tuple(form)


def rabin(
    arena: Arena,
    coloring: Sequence[int] | None = None,
    mode: OracleMode | str = OracleMode.EXACT,
    budget_limit: int | None = DEFAULT_BUDGET,
) -> tuple[Coloring, ReductionReport]:
    """Reduce a coloring to the least index of its equivalence class.

    In ``EXACT`` mode the result has minimal index among colorings that
    agree with the input on the parity of every simple cycle: cycle and pop
    passes iterate to a fixpoint of the color sum, each cycle pass visiting
    the nodes by ascending (color, node).  ``ABSTRACT`` (``alpha``) mode
    minimizes over closed walks in polynomial time, and returns their
    canonical form with no iterations (see :func:`_alpha_form`).

    Raises :class:`ReductionAborted` when an exact query exhausts its
    budget; the exception carries the partial report.  ``budget_limit`` caps
    each exact query's expanded nodes (``None``: unlimited).  A negative
    ``budget_limit`` raises :class:`ValueError` in exact mode; a limit of 0
    answers only the queries that need no search.
    """
    mode = OracleMode(mode)
    colors = list(arena.checked_colors(coloring))
    report = ReductionReport(
        mode=mode,
        initial_index=index(colors),
        final_index=index(colors),
        rank_trace=[sum(colors)],
    )
    if mode is OracleMode.ABSTRACT:
        form = _alpha_form(arena, colors)
        report.final_index = index(form)
        report.rank_trace.append(sum(form))
        return form, report
    state = _PassState(arena, colors, budget_limit, report.stats)
    rank = sum(colors)
    while True:
        try:
            cycle_changes = state.run_cycle_pass()
        except ReductionAborted as exc:
            report.final_index = index(colors)
            exc.report = report
            raise
        pop_changes = state.run_pop_pass()
        report.iterations.append(IterationTrace(cycle_changes, pop_changes))
        new_rank = sum(colors)
        report.rank_trace.append(new_rank)
        if new_rank == rank:
            break
        rank = new_rank
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
    mapping: dict[int, int] = {}
    prev: int | None = None
    for d in sorted(set(coloring)):
        if prev is None:
            mapping[d] = d % 2
        elif (d - prev) % 2 == 0:
            mapping[d] = mapping[prev]
        else:
            mapping[d] = mapping[prev] + 1
        prev = d
    return tuple(map(mapping.__getitem__, coloring))


def all_cycles_even(arena: Arena, coloring: Sequence[int] | None = None) -> bool:
    """Does every cycle have even color?  Holds iff the index can reach 0.

    A simple cycle of odd color exists iff a closed walk of odd color
    does, that is iff the alpha form is not all 0.
    """
    c = arena.checked_colors(coloring)
    return not any(color % 2 for color in c) or not any(_alpha_form(arena, c))


def rabin_a(arena: Arena, coloring: Sequence[int] | None = None) -> Coloring:
    """Carton-Maceiras reduction, included as a baseline.

    It stems from parity word automata, where a run is classified by the
    maximal color recurring in it: the output preserves the parity of the
    *maximal* color of every cycle.  On min-parity arenas it is therefore
    only an index baseline, not an equivalent coloring, and it performs no
    analogue of the pop pass.  The :func:`~rabinindex.cycles.component_forest`
    of the negated coloring peels each nested component's greatest color
    pi; those nodes get the least color of pi's parity not below any new
    color inside the component, and every other node keeps its parity.

    Reference: O. Carton, R. Maceiras, Computing the Rabin index of a
    parity automaton, RAIRO-ITA 33(6), 1999.
    """
    c = arena.checked_colors(coloring)
    entries, holder = component_forest(arena.successors, [-color for color in c])
    out = [color % 2 for color in c]
    # Largest new color inside each entry (peeled nodes add pi % 2, at most
    # m); the extra last slot, best[-1], takes what lies in no entry.
    best = [0] * (len(entries) + 1)
    for u, e in enumerate(holder):
        best[e] = max(best[e], out[u])
    for e in range(len(entries) - 1, -1, -1):
        peeled, parent = entries[e]
        m = best[e] + (c[peeled[0]] - best[e]) % 2
        for u in peeled:
            out[u] = m
        best[parent] = max(best[parent], m)
    return tuple(out)


def abstract_membership(game: ParityGame | Arena, k: int) -> bool:
    """Is the cycle-abstracted Rabin index of the coloring below ``k``?

    This is the polynomial membership test for the k-th abstract index
    class; ``k = 1`` coincides with :func:`all_cycles_even`.
    """
    if k < 1:
        raise ValueError(f"class bound k must be at least 1, got {k}")
    arena = game.arena if isinstance(game, ParityGame) else game
    return index(_alpha_form(arena, arena.colors)) < k
