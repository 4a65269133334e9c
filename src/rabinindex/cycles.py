"""Cycle queries over colored arenas.

The color of a cycle is the minimal color among its nodes.  Two kinds of
cycle drive the reductions in :mod:`rabinindex.reduction`:

* exact queries about *simple* cycles through a given node, which are
  NP-hard in general and answered by a budgeted backtracking search, and
* arbitrary cycles (closed walks), whose node sets are exactly the
  strongly connected ones, so decompositions answer for all at once.

:func:`simple_cycle_through_with_color` and :func:`cycle_through_with_color`
begin with the same polynomial step: a backward reach from the node over
the colors the query admits, and a forward walk inside it to a node of the
target color.  The exact query searches for a simple cycle only after that
step has found a closed walk, and only among the nodes the reach found.

Enumeration helpers at the bottom provide brute-force ground truth for
small arenas and power the equivalence oracles: Johnson's algorithm for the
simple cycles, and a test of every node subset for the closed walks.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .arena import Arena, NodeId

__all__ = [
    "CycleAnswer",
    "SearchBudget",
    "DEFAULT_BUDGET",
    "NodeCapExceeded",
    "SccDecomposition",
    "tarjan_scc",
    "closed_walk_minima",
    "simple_cycle_through_with_color",
    "simple_cycle_with_max_color",
    "cycle_through_with_color",
    "enumerate_simple_cycles",
    "strongly_connected_subsets",
]

DEFAULT_BUDGET = 10_000_000


class CycleAnswer(enum.Enum):
    """Result of a budgeted query; EXHAUSTED is not a 'no'."""

    YES = "yes"
    NO = "no"
    EXHAUSTED = "exhausted"

    def __bool__(self) -> bool:
        # Guard against `if answer:`; exhaustion must be handled explicitly.
        raise TypeError("CycleAnswer is tri-valued; compare against members")


@dataclass
class SearchBudget:
    """Mutable allowance counted in expanded search nodes.  All exact
    queries of one :func:`~rabinindex.reduction.rabin` run share one; a
    query answered by a recorded cycle spends none of it.
    """

    limit: int | None = DEFAULT_BUDGET
    spent: int = 0

    def spend(self, amount: int = 1) -> bool:
        """Consume budget; False once the limit would be exceeded."""
        self.spent += amount
        return self.limit is None or self.spent <= self.limit


class NodeCapExceeded(ValueError):
    """Enumeration was refused because the arena is too large."""


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components of an (induced sub)graph.

    ``component_of[v]`` is -1 for nodes outside the induced subgraph.
    Components are numbered in reverse topological order of discovery and
    ``nontrivial[c]`` says whether component ``c`` contains a cycle, i.e.
    has at least two nodes or a self-loop.
    """

    component_of: tuple[int, ...]
    members: tuple[tuple[NodeId, ...], ...]
    nontrivial: tuple[bool, ...]


def tarjan_scc(
    successors: Sequence[Sequence[NodeId]],
    allowed: Sequence[bool] | None = None,
) -> SccDecomposition:
    """Iterative Tarjan decomposition of the subgraph induced by ``allowed``."""
    n = len(successors)
    UNVISITED = -1
    # A node outside the mask or already in a component has index n, above
    # every lowlink, so the search needs no other test to skip it.
    index_of = [UNVISITED] * n if allowed is None else [UNVISITED if a else n for a in allowed]
    lowlink = [0] * n
    component_of = [-1] * n
    stack: list[int] = []
    members: list[tuple[int, ...]] = []
    nontrivial: list[bool] = []
    counter = 0
    component = 0  # the id of the next component found
    # The depth-first path, and one successor iterator per node on it.
    path: list[int] = []
    branches: list[Iterator[NodeId]] = []

    for root in range(n):
        if index_of[root] != UNVISITED:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        path.append(root)
        branches.append(iter(successors[root]))
        while branches:
            v = path[-1]
            for w in branches[-1]:
                i = index_of[w]
                if i == UNVISITED:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    branches.append(iter(successors[w]))
                    break
                if i < lowlink[v]:
                    lowlink[v] = i
            else:
                branches.pop()
                path.pop()
                low = lowlink[v]
                if low != index_of[v]:  # not a root: it has a parent
                    if low < lowlink[path[-1]]:
                        lowlink[path[-1]] = low
                    continue
                # v is a root: its component is v and the stack above it.
                w = stack.pop()
                index_of[w] = n
                component_of[w] = component
                if w == v:
                    members.append((v,))
                    nontrivial.append(v in successors[v])
                else:
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        index_of[w] = n
                        component_of[w] = component
                        comp.append(w)
                    comp.sort()
                    members.append(tuple(comp))
                    nontrivial.append(True)
                component += 1

    return SccDecomposition(tuple(component_of), tuple(members), tuple(nontrivial))


def closed_walk_minima(
    successors: Sequence[Sequence[NodeId]], colors: Sequence[int]
) -> list[bool]:
    """Mark every node ``u`` on a closed walk whose minimal color is
    ``colors[u]``.

    Peels the nested nontrivial components one level per
    :func:`tarjan_scc` run over the live nodes: each level marks every
    component's least-colored nodes and leaves the rest live.  A closed
    walk through any other node avoids the least color of its component,
    so it stays inside what is left of that component, and distinct
    components never merge.
    """
    n = len(successors)
    marked = [False] * n
    live: list[bool] | None = None
    while True:
        scc = tarjan_scc(successors, live)
        live = [False] * n
        left = False
        for comp, nontrivial in zip(scc.members, scc.nontrivial):
            if not nontrivial:
                continue
            low = min(colors[u] for u in comp)
            for u in comp:
                if colors[u] == low:
                    marked[u] = True
                else:
                    live[u] = left = True
        if not left:
            return marked


def _check_query(arena: Arena, coloring: Sequence[int], v: NodeId, gamma: int) -> None:
    if len(coloring) != arena.node_count:
        raise ValueError(f"coloring has {len(coloring)} entries for {arena.node_count} nodes")
    if not 0 <= v < len(coloring):
        raise ValueError(f"node {v} out of range")
    if gamma < 0:
        raise ValueError(f"target color {gamma} is negative")
    if gamma > coloring[v]:
        raise ValueError(
            f"target color {gamma} exceeds color {coloring[v]} of node {v}; "
            "such a cycle cannot exist"
        )


# One all-True list of marks kept by its length: a query takes it out,
# unmarks the nodes its backward reach finds and marks them again when done,
# so it costs what the reach costs instead of a fresh n-long list.
_spare_marks: dict[int, list[bool]] = {}


def _outside_walk_reach(
    arena: Arena, c: Sequence[int], v: NodeId, gamma: int
) -> tuple[list[bool], list[NodeId]] | None:
    """Mark the nodes that do not reach ``v`` in the color->=gamma
    subgraph, if a closed walk through ``v`` has minimal color ``gamma``;
    else None.  Returns the marks and the unmarked nodes, which a caller
    hands back to :func:`_release_marks` for the next query to reuse.

    One backward reach from ``v``, then a forward walk from ``v`` inside
    it that stops at the first gamma-colored node: such a node reaches
    ``v`` and is reached from it, so it closes the walk.
    """
    outside = _spare_marks.pop(len(c), None) or [True] * len(c)
    outside[v] = False
    reach = [v]
    predecessors = arena.predecessors
    for x in reach:  # the loop also visits what it appends
        for u in predecessors[x]:
            if outside[u] and c[u] >= gamma:
                outside[u] = False
                reach.append(u)
    seen: set[NodeId] = set()
    stack = [v]
    successors = arena.successors
    while stack:
        for w in successors[stack.pop()]:
            if not outside[w] and w not in seen:
                if c[w] == gamma:
                    return outside, reach
                seen.add(w)
                stack.append(w)
    _release_marks(outside, reach)
    return None


def _release_marks(marks: list[bool], unmarked: list[NodeId]) -> None:
    for u in unmarked:
        marks[u] = True
    _spare_marks.clear()
    _spare_marks[len(marks)] = marks


# Simple cycles found by YES searches that backtracked, by query (v, gamma):
# each a node tuple starting at v, whose least color was gamma when found.
CycleRecord = dict[tuple[NodeId, int], tuple[NodeId, ...]]


def simple_cycle_through_with_color(
    arena: Arena,
    coloring: Sequence[int] | None,
    v: NodeId,
    gamma: int,
    budget: SearchBudget | None = None,
    *,
    memo: CycleRecord | None = None,
) -> CycleAnswer:
    """Is there a simple cycle through ``v`` whose minimal color is ``gamma``?

    Equivalently: a simple cycle through ``v`` that stays within nodes of
    color >= gamma and visits a node colored exactly gamma.  The query
    first reaches backward from ``v`` over those nodes and answers NO,
    spending no budget, when no closed walk of color ``gamma`` passes
    through ``v``.  Otherwise it backtracks over simple paths from ``v``
    inside the backward reach; every node such a path enters is also
    reachable from ``v``, so the search stays in ``v``'s component without
    computing it, and tries each node's successors in their listed order.
    ``EXHAUSTED`` is returned when the budget runs out before an answer is
    certain.  Only the coloring's length is checked, so a query costs what
    its component costs; a negative color at a node other than ``v``
    counts as below every threshold.

    ``budget`` may arrive partly spent.  ``memo`` records the cycle a YES
    search found after backtracking, as one :func:`~rabinindex.reduction.rabin`
    run keeps them.  The arena's edges do not change, so a recorded cycle
    for ``(v, gamma)`` is still a simple cycle through ``v``: when its least
    color under ``coloring`` is ``gamma``, it answers YES before the reach,
    spending no budget.  Colors only fall within a run, so a search that
    never backtracked is not worth recording: repeated while its cycle's
    least color is ``gamma``, it walks the same path in no more pushes.
    """
    c = arena.colors if coloring is None else coloring
    _check_query(arena, c, v, gamma)
    if memo and (cycle := memo.get((v, gamma))) and min(c[u] for u in cycle) == gamma:
        return CycleAnswer.YES
    found = _outside_walk_reach(arena, c, v, gamma)
    if found is None:
        return CycleAnswer.NO
    # A node is blocked while it is outside the reach or on the path.
    blocked, reach = found
    if c[v] == gamma:
        # v itself realizes the target color: the shortest closed walk
        # through v inside its component is a simple cycle of color gamma.
        _release_marks(blocked, reach)
        return CycleAnswer.YES
    if budget is None:
        budget = SearchBudget()
    # The search counts its pushes locally and charges them on return;
    # it gives up at the push where SearchBudget.spend would first refuse.
    allowance = sys.maxsize if budget.limit is None else budget.limit - budget.spent
    answer, expanded, path = _search(arena.successors, c, blocked, v, gamma, allowance)
    budget.spent += expanded
    _release_marks(blocked, reach)
    # Without backtracking the search pushed each node of its cycle but v once.
    if memo is not None and answer is CycleAnswer.YES and expanded >= len(path):
        memo[v, gamma] = tuple(path)
    return answer


def _search(
    successors: Sequence[Sequence[NodeId]],
    c: Sequence[int],
    blocked: list[bool],
    v: NodeId,
    gamma: int,
    allowance: int,
) -> tuple[CycleAnswer, int, list[NodeId]]:
    """Depth-first enumeration of simple paths from ``v`` among the
    unblocked nodes.  ``v`` stays on the path, so reaching it again is the
    only way to close a cycle.  Returns the answer, the nodes pushed and
    the path, which on YES is the cycle found; gives up at push
    ``allowance + 1``.

    The search alternates between two phases, so that a push or a
    successor tried costs O(1) and never scans the path:

    * phase A, while no gamma-colored node is on the path: each push tests
      the new node's color, and an edge back to ``v`` is skipped like any
      other blocked node;
    * phase B, from the push of the first gamma-colored node until that
      node is popped: a push tests no color, and an edge back to ``v``
      closes a cycle of color gamma at once.

    The successor iterator of the last path node is a local; those of the
    earlier path nodes wait on a stack.
    """
    expanded = 0
    blocked[v] = True
    path = [v]
    branches: list[Iterator[NodeId]] = []
    push, pop = path.append, path.pop
    save, restore = branches.append, branches.pop
    branch = iter(successors[v])
    while True:
        # Phase A: find the next unblocked successor, or pop.
        for w in branch:
            if not blocked[w]:
                break
        else:
            blocked[pop()] = False
            if not branches:
                return CycleAnswer.NO, expanded, path
            branch = restore()
            continue
        expanded += 1
        if expanded > allowance:
            return CycleAnswer.EXHAUSTED, expanded, path
        blocked[w] = True
        push(w)
        save(branch)
        branch = iter(successors[w])
        if c[w] != gamma:
            continue
        # Phase B, until ``first`` leaves the path.
        first = w
        while True:
            for w in branch:
                if blocked[w]:
                    if w == v:
                        return CycleAnswer.YES, expanded, path
                    continue
                break
            else:
                node = pop()
                blocked[node] = False
                branch = restore()
                if node == first:
                    break
                continue
            expanded += 1
            if expanded > allowance:
                return CycleAnswer.EXHAUSTED, expanded, path
            blocked[w] = True
            push(w)
            save(branch)
            branch = iter(successors[w])


def simple_cycle_with_max_color(arena: Arena, coloring: Sequence[int] | None = None) -> bool:
    """Does some simple cycle have color equal to the index of the coloring?

    Such a cycle uses only nodes of the maximal color, so this is a plain
    cycle test on the induced subgraph and stays polynomial.
    """
    c = arena.checked_colors(coloring)
    m = max(c)
    return any(tarjan_scc(arena.successors, [color == m for color in c]).nontrivial)


def cycle_through_with_color(
    arena: Arena, coloring: Sequence[int] | None, v: NodeId, gamma: int
) -> bool:
    """Is there a cycle (closed walk) through ``v`` with minimal color ``gamma``?

    A closed walk with minimum exactly ``gamma`` through ``v`` exists iff
    ``v`` shares a nontrivial strongly connected component of the
    color->=gamma subgraph with some node colored exactly ``gamma``.
    """
    c = arena.checked_colors(coloring)
    _check_query(arena, c, v, gamma)
    found = _outside_walk_reach(arena, c, v, gamma)
    if found is None:
        return False
    _release_marks(*found)
    return True


def enumerate_simple_cycles(
    arena: Arena, node_cap: int = 15
) -> Iterator[tuple[NodeId, ...]]:
    """All simple cycles, each exactly once, rotated to start at the minimal node.

    Johnson's enumeration (SIAM J. Comput. 4(1), 1975), without recursion:
    the cycles with least node ``s`` are the simple paths from ``s`` back to
    ``s`` among the nodes above ``s`` that reach it.  A node stays blocked
    from the moment it joins the path until some cycle through it is found;
    one that leaves the path without closing a cycle waits on its successors
    and is unblocked as soon as any of them is.  So the search does O(n + e)
    work between two cycles, and with one backward reach per start the
    whole enumeration takes O((n + e)(n + c)) time for c cycles.  Intended
    as a brute-force oracle and refused outright above ``node_cap`` nodes
    because the count can be factorial.
    """
    n = arena.node_count
    if n > node_cap:
        raise NodeCapExceeded(f"arena has {n} nodes, enumeration capped at {node_cap}")
    successors, predecessors = arena.successors, arena.predecessors
    for s in range(n):
        # Unblock exactly the nodes above s that reach s through such nodes.
        blocked = [True] * n
        frontier = [s]
        while frontier:
            for u in predecessors[frontier.pop()]:
                if u > s and blocked[u]:
                    blocked[u] = False
                    frontier.append(u)
        waiters: dict[NodeId, set[NodeId]] = {}  # Johnson's B lists
        path, closed, branches = [s], [False], [iter(successors[s])]
        while branches:
            for w in branches[-1]:
                if w == s:
                    yield tuple(path)
                    closed[-1] = True
                elif not blocked[w]:
                    blocked[w] = True
                    path.append(w)
                    closed.append(False)
                    branches.append(iter(successors[w]))
                    break
            else:
                branches.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if blocked[u]:
                            blocked[u] = False
                            unblock.extend(waiters.pop(u, ()))
                else:
                    for w in successors[v]:
                        waiters.setdefault(w, set()).add(v)


def strongly_connected_subsets(
    arena: Arena, node_cap: int = 12
) -> Iterator[frozenset[NodeId]]:
    """All node sets inducing a strongly connected subgraph with an edge.

    These are exactly the node sets of closed walks, so they characterize
    the abstract (cycle) equivalence relation.  Exponential by nature and
    refused above ``node_cap`` nodes.
    """
    n = arena.node_count
    if n > node_cap:
        raise NodeCapExceeded(f"arena has {n} nodes, enumeration capped at {node_cap}")
    successors = arena.successors
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            subset = set(combo)
            if size == 1:
                v = combo[0]
                if v in successors[v]:
                    yield frozenset(subset)
                continue
            # forward reachability from the first node inside the subset
            reached = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                u = frontier.pop()
                for w in successors[u]:
                    if w in subset and w not in reached:
                        reached.add(w)
                        frontier.append(w)
            if reached != subset:
                continue
            back = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                u = frontier.pop()
                for w in subset:
                    if w not in back and u in successors[w]:
                        back.add(w)
                        frontier.append(w)
            if back == subset:
                yield frozenset(subset)
