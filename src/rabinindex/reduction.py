"""Color reductions that preserve winning behavior of parity games.

Two colorings of the same arena are equivalent when every simple cycle has
the same parity of minimal color under both; the Rabin index of a coloring
is the smallest index among equivalent colorings.  :func:`rabin` lowers a
coloring to that minimum using exact simple-cycle queries.  In ``alpha``
mode it minimizes over the coarser relation of all closed walks instead,
in polynomial time: that relation is the one of parity automata, so its
optimum is a canonical form read off the nested strongly connected
components, which a divide and conquer over parity-run thresholds finds
in O(m log k) for m edges and k parity runs (see :func:`_alpha_form`).

The remaining entry points are cheaper companions: :func:`static_compress`
squeezes gaps out of the color value set without looking at edges,
:func:`all_cycles_even` decides whether the index can drop to zero, and
:func:`abstract_membership` tests the abstract index against a bound.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .arena import Arena, Coloring, NodeId, ParityGame, check_coloring, index
from .cycles import (
    DEFAULT_BUDGET,
    CycleAnswer,
    SearchBudget,
    SearchMemo,
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
    "abstract_membership",
]

Change = tuple[NodeId, int, int]  # node, old color, new color

_first = itemgetter(0)


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
    # Queries answered from a completed search of the same run, and the
    # expansions they were charged without searching (part of nodes_expanded).
    reused_queries: int = 0
    nodes_reused: int = 0


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
    in use, so an anchor scans only the colors present.  Keeps the run's
    completed searches, which a repeated query reuses while its reach and
    gamma-colored nodes are unchanged (see
    :func:`~rabinindex.cycles.simple_cycle_through_with_color`).
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
        self._searches: SearchMemo = {}

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
        answer = simple_cycle_through_with_color(
            self.arena, self.colors, v, gamma, budget, memo=self._searches
        )
        stats = self.stats
        stats.exact_queries += 1
        stats.nodes_expanded += budget.spent
        if budget.reused:
            stats.reused_queries += 1
            stats.nodes_reused += budget.reused
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


class _Nesting:
    """The nested nontrivial components of a graph, gathered as a tree
    from the highest threshold down.

    A union-find over the nodes holds the components joined so far, each
    listing its members under its root.  Each root knows the last tree
    node opened on its set; each tree node keeps its least color and the
    next larger tree node.
    """

    def __init__(self, colors: Sequence[int]):
        n = len(colors)
        self.colors = colors
        self.root = list(range(n))
        self.members = [[u] for u in range(n)]
        self.tree_of = [-1] * n
        self.leaf = [-1] * n  # the least tree node holding each node
        self.low: list[int] = []
        self.up: list[int] = []

    def join(self, edges: list[tuple[int, NodeId, NodeId]]) -> None:
        """Join the ends of edges that first share a component at this
        threshold, and open one tree node on each set they make: over the
        tree nodes of the sets it joined, or over a node with a self-loop."""
        root, members, colors, tree_of, low, up = (
            self.root, self.members, self.colors, self.tree_of, self.low, self.up
        )
        joined = set()
        for _, u, v in edges:
            a, b = root[u], root[v]
            joined.add(a)
            if a != b:
                joined.add(b)
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for x in members[b]:
                    root[x] = a
                members[a] += members[b]
        opened: dict[int, int] = {}
        for x in joined:
            t = opened.get(root[x])
            if t is None:
                t = opened[root[x]] = len(low)
                low.append(colors[x])
                up.append(-1)
            below = tree_of[x]
            if below < 0:  # a node on its own so far
                self.leaf[x] = t
                least = colors[x]
            else:
                up[below] = t
                least = low[below]
            if least < low[t]:
                low[t] = least
        for r, t in opened.items():
            tree_of[r] = t

    def values(self) -> list[int]:
        """Each tree node's ``base + (least color - base) % 2``, where
        ``base`` is the value of the next larger one, or 0 at a root."""
        value = [0] * (len(self.low) + 1)  # value[-1] = 0 stands above the roots
        for t in range(len(self.low) - 1, -1, -1):
            base = value[self.up[t]]
            value[t] = base + (self.low[t] - base) % 2
        return value


def _alpha_form(arena: Arena, colors: Sequence[int]) -> Coloring:
    """The pointwise least coloring alpha-equivalent to ``colors``: the
    min-parity form of Carton and Maceiras's reduction (RAIRO-ITA 33(6),
    1999), since closed walks are the strongly connected node sets.

    Within a nontrivial component, rank each color by its parity run: the
    number of parity switches below it among the component's colors.  The
    components of the nodes ranked at least t nest as t falls, and each
    nontrivial one gets ``base + (least color - base) % 2``, where ``base``
    is the value of the next larger one (0 at the top).  Order and parity
    are all this reads, so a component of one run gets its least color's
    parity at once.

    The rest share one divide and conquer over thresholds after Tarjan
    ("An improved algorithm for hierarchical clustering using strong
    components", IPL 17(1), 1983), which finds the threshold at which each
    edge's ends first share a component in O(m log k) for k runs.  A task
    holds edges whose ends share a component at threshold ``lo`` but not
    above ``hi``, the components joined above ``hi`` contracted.  It
    decomposes the edges ranked at least its middle: edges inside a
    component go up, the rest go down with those components contracted.
    Tasks of one threshold join their ends in :class:`_Nesting`, highest
    first.  The first decomposition runs over ``arena.predecessors``: the
    reverse graph has the same components, and the exact search and the
    solver build that index anyway, so timing this pass charges it no work
    another stage would otherwise do.
    """
    n = arena.node_count
    predecessors = arena.predecessors
    top = tarjan_scc(predecessors)
    component_of = top.component_of
    form = [0] * n
    key = [0] * n  # minus a node's rank
    # Each edge inside a component of several runs as (-rank, end, end), its
    # rank the lesser of its ends' ranks: in ascending order, those ranked
    # at least t come first.
    edges: list[tuple[int, NodeId, NodeId]] = []
    runs = 0
    for c, (comp, nontrivial) in enumerate(zip(top.members, top.nontrivial)):
        if not nontrivial:
            continue
        present = sorted({colors[u] for u in comp})
        rank_of = {present[0]: 0}
        for below, color in zip(present, present[1:]):
            rank_of[color] = rank_of[below] + (color - below) % 2
        if rank_of[present[-1]] == 0:
            for u in comp:
                form[u] = present[0] % 2
            continue
        runs = max(runs, rank_of[present[-1]] + 1)
        for u in comp:
            key[u] = -rank_of[colors[u]]
        edges += [
            (kv if kv > (ku := key[u]) else ku, v, u)
            for v in comp
            for kv in (key[v],)
            for u in predecessors[v]
            if component_of[u] == c
        ]
    edges.sort(key=_first)
    nesting = _Nesting(colors)
    root = nesting.root
    # Each task also says whether its ends still name the roots of their
    # sets, as they do until a task of a higher threshold has joined some.
    tasks = [(edges, 0, runs - 1, True)] if edges else []
    while tasks:
        edges, lo, hi, current = tasks.pop()
        if lo == hi:
            nesting.join(edges)
            continue
        mid = (lo + hi + 1) // 2
        cut = bisect_left(edges, 1 - mid, key=_first)
        if not cut:
            tasks.append((edges, lo, mid - 1, current))
            continue
        if current:
            ranked = edges[:cut]
        else:
            # Parallel edges between two sets rank alike up to hi: members
            # of a set joined above hi all rank above hi, so each such edge
            # ranks above hi or as its one end outside such a set.  One edge
            # stands for them all.
            best = {(root[u], root[v]): k for k, u, v in reversed(edges[:cut])}
            ranked = sorted([(k, a, b) for (a, b), k in best.items()], key=_first)
        local = {x: i for i, x in enumerate({x: None for _, a, b in ranked for x in (a, b)})}
        tails = [local[a] for _, a, _ in ranked]
        heads = [local[b] for _, _, b in ranked]
        successors: list[list[int]] = [[] for _ in local]
        for a, b in zip(tails, heads):
            successors[a].append(b)
        comp_of = tarjan_scc(successors).component_of
        inside = [comp_of[a] == comp_of[b] for a, b in zip(tails, heads)]
        down = [e for e, i in zip(ranked, inside) if not i] + edges[cut:]
        up = [e for e, i in zip(ranked, inside) if i]
        # The upper half goes on last and so runs first: every threshold
        # above a task is joined before the task runs.
        if down:
            tasks.append((down, lo, mid - 1, False))
        if up:
            tasks.append((up, mid, hi, True))
    value = nesting.values()
    for u, t in enumerate(nesting.leaf):
        if t >= 0:
            form[u] = value[t]
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
    each exact query's expanded nodes (``None``: unlimited).  Within one
    run, a repeated query whose reach and gamma-colored nodes are unchanged
    reuses the completed search and is charged its recorded expansions, so
    budgets and aborts do not depend on reuse.  A negative
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


def abstract_membership(game: ParityGame | Arena, k: int) -> bool:
    """Is the cycle-abstracted Rabin index of the coloring below ``k``?

    This is the polynomial membership test for the k-th abstract index
    class; ``k = 1`` coincides with :func:`all_cycles_even`.
    """
    if k < 1:
        raise ValueError(f"class bound k must be at least 1, got {k}")
    arena = game.arena if isinstance(game, ParityGame) else game
    return index(_alpha_form(arena, arena.colors)) < k
