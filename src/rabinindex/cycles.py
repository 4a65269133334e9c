"""Cycle queries over colored arenas.

The color of a cycle is the minimal color among its nodes.  Two kinds of
query drive the reductions in :mod:`rabinindex.reduction`:

* exact queries about *simple* cycles through a given node, which are
  NP-hard in general and answered by a budgeted backtracking search, and
* abstract queries about arbitrary cycles (closed walks), which reduce to
  reachability and strongly connected component decompositions and are
  polynomial.

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
    "component_forest",
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
    """Mutable per-query allowance counted in expanded search nodes."""

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

    def closes_walk_at(self, v: NodeId, colors: Sequence[int], gamma: int) -> bool:
        """Does ``v`` share a nontrivial component with a ``gamma``-colored node?

        On the decomposition of the color->=gamma subgraph this holds iff
        some closed walk through ``v`` has minimal color exactly ``gamma``.
        """
        comp = self.component_of[v]
        return (
            comp >= 0
            and self.nontrivial[comp]
            and any(colors[u] == gamma for u in self.members[comp])
        )


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
                elif stack[-1] == v:
                    stack.pop()
                    index_of[v] = n
                    component_of[v] = len(members)
                    members.append((v,))
                    nontrivial.append(v in successors[v])
                else:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index_of[w] = n
                        component_of[w] = len(members)
                    members.append(tuple(sorted(comp)))
                    nontrivial.append(True)

    return SccDecomposition(tuple(component_of), tuple(members), tuple(nontrivial))


def component_forest(
    successors: Sequence[Sequence[NodeId]], colors: Sequence[int]
) -> tuple[list[tuple[tuple[NodeId, ...], int]], list[int]]:
    """Nested nontrivial components, peeled level by level: each level
    removes every component's least-colored nodes, and one
    :func:`tarjan_scc` run splits what is left into the next level's
    components (distinct components never merge).

    Returns ``(entries, holder)``: one ``(peeled, parent)`` entry per
    nontrivial component, parents first, with its least-colored nodes and
    the position of its enclosing entry (or -1); and per node the last
    entry that held it (the one that peeled it, if any), or -1.
    """
    n = len(successors)
    entries: list[tuple[tuple[NodeId, ...], int]] = []
    holder = [-1] * n
    live: list[bool] | None = None
    while True:
        scc = tarjan_scc(successors, live)
        live = [False] * n
        left = False
        for comp, nontrivial in zip(scc.members, scc.nontrivial):
            if not nontrivial:
                continue
            low = min(colors[u] for u in comp)
            entries.append((tuple(u for u in comp if colors[u] == low), holder[comp[0]]))
            for u in comp:
                holder[u] = len(entries) - 1
                if colors[u] != low:
                    live[u] = left = True
        if not left:
            return entries, holder


def closed_walk_minima(
    successors: Sequence[Sequence[NodeId]], colors: Sequence[int]
) -> list[bool]:
    """Mark every node ``u`` on a closed walk whose minimal color is
    ``colors[u]``: the nodes :func:`component_forest` peels.  A closed walk
    through any other node avoids the least color of its component, so it
    stays inside what is left of that component."""
    marked = [False] * len(successors)
    for peeled, _ in component_forest(successors, colors)[0]:
        for u in peeled:
            marked[u] = True
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


def _outside_walk_reach(
    arena: Arena, c: Sequence[int], v: NodeId, gamma: int
) -> list[bool] | None:
    """Mark the nodes that do not reach ``v`` in the color->=gamma
    subgraph, if a closed walk through ``v`` has minimal color ``gamma``;
    else None.

    One backward reach from ``v``, then a forward walk from ``v`` inside
    it that stops at the first gamma-colored node: such a node reaches
    ``v`` and is reached from it, so it closes the walk.
    """
    outside = [True] * len(c)
    outside[v] = False
    stack = [v]
    predecessors = arena.predecessors
    while stack:
        for u in predecessors[stack.pop()]:
            if outside[u] and c[u] >= gamma:
                outside[u] = False
                stack.append(u)
    seen: set[NodeId] = set()
    stack = [v]
    successors = arena.successors
    while stack:
        for w in successors[stack.pop()]:
            if not outside[w] and w not in seen:
                if c[w] == gamma:
                    return outside
                seen.add(w)
                stack.append(w)
    return None


def simple_cycle_through_with_color(
    arena: Arena,
    coloring: Sequence[int] | None,
    v: NodeId,
    gamma: int,
    budget: SearchBudget | None = None,
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
    """
    c = arena.colors if coloring is None else coloring
    _check_query(arena, c, v, gamma)
    successors = arena.successors
    # A node is blocked while it is outside the reach or on the path.
    blocked = _outside_walk_reach(arena, c, v, gamma)
    if blocked is None:
        return CycleAnswer.NO
    if c[v] == gamma:
        # v itself realizes the target color: the shortest closed walk
        # through v inside its component is a simple cycle of color gamma.
        return CycleAnswer.YES
    if budget is None:
        budget = SearchBudget()
    # The search counts its pushes locally and charges them on return; it
    # gives up at the push where SearchBudget.spend would first refuse.
    allowance = sys.maxsize if budget.limit is None else budget.limit - budget.spent
    expanded = 0

    # Depth-first enumeration of simple paths from v, counting how many
    # gamma-colored nodes are on the current path.  v stays on the path, so
    # reaching it again is the only way to close a cycle.
    blocked[v] = True
    gamma_on_path = 0
    path = [v]
    branches = [iter(successors[v])]
    while branches:
        for w in branches[-1]:
            if blocked[w]:
                if w == v and gamma_on_path:
                    budget.spent += expanded
                    return CycleAnswer.YES
                continue
            expanded += 1
            if expanded > allowance:
                budget.spent += expanded
                return CycleAnswer.EXHAUSTED
            blocked[w] = True
            if c[w] == gamma:
                gamma_on_path += 1
            path.append(w)
            branches.append(iter(successors[w]))
            break
        else:
            node = path.pop()
            blocked[node] = False
            if c[node] == gamma:
                gamma_on_path -= 1
            branches.pop()
    budget.spent += expanded
    return CycleAnswer.NO


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
    return _outside_walk_reach(arena, c, v, gamma) is not None


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
