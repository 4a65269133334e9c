"""Color reductions that preserve winning behavior of parity games.

Two colorings of the same arena are equivalent when every simple cycle has
the same parity of minimal color under both; the Rabin index of a coloring
is the smallest index among equivalent colorings.  :func:`rabin` lowers a
coloring to that minimum using exact simple-cycle queries, or to the
coarser cycle-abstracted minimum (all closed walks instead of simple
cycles) when run in ``alpha`` mode, which keeps everything polynomial.

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
from typing import Sequence

from .arena import Arena, Coloring, NodeId, ParityGame, check_coloring, index
from .cycles import (
    DEFAULT_BUDGET,
    CycleAnswer,
    SccDecomposition,
    SearchBudget,
    closed_walk_minima,
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
    """Which cycle notion anchors are computed against."""

    EXACT = "exact"
    ABSTRACT = "alpha"


@dataclass
class OracleStats:
    exact_queries: int = 0
    abstract_queries: int = 0
    max_color_checks: int = 0
    nodes_expanded: int = 0
    reach_steps: int = 0  # nodes expanded by the anchors' per-threshold reaches
    scc_builds: int = 0  # threshold decompositions built for anchors


@dataclass
class IterationTrace:
    cycle_changes: tuple[Change, ...]
    pop_changes: tuple[Change, ...]


@dataclass
class ReductionReport:
    """Per-run trace of :func:`rabin`.

    ``rank_trace`` holds the color sum before the loop and after each
    iteration; it strictly decreases except for the final confirming entry.
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
    """Shared bookkeeping for one reduction run, and its anchor oracle.

    ``v`` lies on a closed walk of minimal color gamma iff some
    gamma-colored node is both reachable from ``v`` and reaches ``v``
    within the color->=gamma subgraph.  :meth:`anchor` probes descending
    gamma, each with a fresh two-way reach from ``v`` that stops at the
    first witness.  Where every such walk is long, reaches keep crossing
    the same subgraph, so each threshold is charged the reach work done at
    it; once that exceeds n + m the threshold's SCC decomposition is built
    and cached, and answers the threshold's later queries.  Lowering a
    color from old to new changes only the subgraphs of thresholds in
    ``(new, old]``, so only those lose their decomposition and charge.

    Exact mode asks for a simple cycle only where a closed walk exists;
    which nodes that search enters is up to
    :func:`~rabinindex.cycles.simple_cycle_through_with_color` alone.
    Tracks how many nodes carry each color, and the sorted list of colors
    in use, so an anchor scans only the colors present.
    """

    def __init__(
        self,
        arena: Arena,
        colors: list[int],
        mode: OracleMode,
        budget_limit: int | None,
        stats: OracleStats,
    ):
        if budget_limit is not None and budget_limit < 0:
            raise ValueError(f"budget limit {budget_limit} is negative")
        self.arena = arena
        self.colors = colors
        self.mode = mode
        self.budget_limit = budget_limit
        self.stats = stats
        self.color_count: Counter[int] = Counter(colors)
        self._present = sorted(self.color_count)
        n = arena.node_count
        self._size = n + sum(len(succ) for succ in arena.successors)
        self._scc_cache: dict[int, SccDecomposition] = {}
        self._charged: Counter[int] = Counter()  # reach steps per threshold
        self._marks = ([0] * n, [0] * n)
        self._stamp = 0

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
        low, high = min(old, new), max(old, new)
        for cache in (self._scc_cache, self._charged):
            for gamma in [g for g in cache if low < g <= high]:
                del cache[gamma]

    def _closes_walk(self, v: NodeId, gamma: int) -> bool:
        self.stats.abstract_queries += 1
        scc = self._scc_cache.get(gamma)
        if scc is None and self._charged[gamma] > self._size:
            allowed = [c >= gamma for c in self.colors]
            scc = self._scc_cache[gamma] = tarjan_scc(self.arena.successors, allowed)
            self.stats.scc_builds += 1
        if scc is not None:
            return scc.closes_walk_at(v, self.colors, gamma)
        meets, steps = self._reach_meets(v, gamma)
        self._charged[gamma] += steps
        self.stats.reach_steps += steps
        return meets

    def _reach_meets(self, v: NodeId, gamma: int) -> tuple[bool, int]:
        """Grow a forward and a backward set from ``v`` in the color->=gamma
        subgraph, expanding one node per side in turn, until a gamma-colored
        node lies in both (True) or a side closes without one (False).
        Also returns the number of nodes expanded."""
        colors = self.colors
        # marks[side][u] == stamp: u is in this reach's forward (0) or
        # backward (1) set; a fresh stamp empties both without clearing.
        self._stamp += 1
        stamp = self._stamp
        forward, backward = self._marks
        forward[v] = backward[v] = stamp
        sides = (
            (self.arena.successors, forward, backward, [v]),
            (self.arena.predecessors, backward, forward, [v]),
        )
        found = [False, False]  # the side holds a gamma-colored node
        steps = 0
        while True:
            moved = False
            for side, (links, mine, other, stack) in enumerate(sides):
                if not stack:
                    if not found[side]:
                        return False, steps
                    continue
                moved = True
                steps += 1
                for w in links[stack.pop()]:
                    color = colors[w]
                    if color < gamma or mine[w] == stamp:
                        continue
                    mine[w] = stamp
                    stack.append(w)
                    if color == gamma:
                        if other[w] == stamp:
                            return True, steps
                        found[side] = True
            if not moved:
                return False, steps

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
        (simple, in exact mode) cycle through v has color exactly gamma; -1
        if there is none."""
        c_v = self.colors[v]
        present = self._present
        for i in range(bisect_left(present, c_v) - 1, -1, -1):
            gamma = present[i]
            if (c_v - gamma) % 2 == 0:
                continue
            if self._closes_walk(v, gamma) and (
                self.mode is OracleMode.ABSTRACT or self._simple_cycle(v, gamma)
            ):
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


def rabin(
    arena: Arena,
    coloring: Sequence[int] | None = None,
    mode: OracleMode | str = OracleMode.EXACT,
    budget_limit: int | None = DEFAULT_BUDGET,
) -> tuple[Coloring, ReductionReport]:
    """Iterate cycle and pop passes to a fixpoint of the color sum.

    In ``EXACT`` mode the result has minimal index among colorings that
    agree with the input on the parity of every simple cycle; ``ABSTRACT``
    (``alpha``) mode minimizes over the coarser closed-walk relation in
    polynomial time.  Each cycle pass visits the nodes by ascending
    (color, node).

    Raises :class:`ReductionAborted` when an exact query exhausts its
    budget; the exception carries the partial report.  ``budget_limit`` caps
    each query's expanded nodes (``None``: unlimited).  A negative
    ``budget_limit`` raises :class:`ValueError`; a limit of 0 answers only
    the queries that need no search.
    """
    mode = OracleMode(mode)
    colors = list(arena.checked_colors(coloring))
    stats = OracleStats()
    state = _PassState(arena, colors, mode, budget_limit, stats)
    report = ReductionReport(
        mode=mode,
        initial_index=index(colors),
        final_index=index(colors),
        rank_trace=[sum(colors)],
        stats=stats,
    )
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

    A cycle of odd color ``d`` exists iff some node colored ``d`` lies on a
    closed walk whose minimal color is its own.
    """
    c = arena.checked_colors(coloring)
    if not any(color % 2 for color in c):
        return True
    marked = closed_walk_minima(arena.successors, c)
    return not any(on_walk and color % 2 for on_walk, color in zip(marked, c))


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
    reduced, _ = rabin(arena, mode=OracleMode.ABSTRACT)
    return index(reduced) < k
