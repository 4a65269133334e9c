"""Cycle queries over colored arenas.

The color of a cycle is the minimal color among its nodes.  Two kinds of
cycle drive the reductions in :mod:`rabinindex.reduction`:

* exact queries about *simple* cycles through a given node, which are
  NP-hard in general and answered by a budgeted backtracking search, and
* arbitrary cycles (closed walks), whose node sets are exactly the
  strongly connected ones: :func:`tarjan_scc` lists the cyclic components,
  those that hold a closed walk, and answers for all of them at once.
  :func:`nesting_tree` nests the cyclic components of the subgraphs above
  each parity run, each inside the next larger one: it is the one
  hierarchy behind the alpha form of :mod:`rabinindex.reduction` and the
  parity check of :func:`~rabinindex.solver.verify_solution`.

Both run one iterative Tarjan loop, :func:`_tarjan_from`.  ``tarjan_scc``
starts it from every node, on fresh marks, to list the components.  Each
task of the tree's divide and conquer starts it from the tails of its
edges, on a successor table and marks that the whole tree shares: the
loop leaves each node it reached labelled by its component, and the task
reads the labels, then hands the marks back unvisited by resetting just
the nodes it touched.

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
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, combinations, compress
from operator import not_

from .arena import Arena, NodeId, Record

__all__ = [
    "CycleAnswer",
    "SearchBudget",
    "DEFAULT_BUDGET",
    "NodeCapExceeded",
    "tarjan_scc",
    "nesting_tree",
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


class SearchBudget(Record):
    """Mutable allowance counted in expanded search nodes.  All exact
    queries of one :func:`~rabinindex.reduction.rabin` run share one; a
    query answered by a recorded cycle spends none of it.
    """

    __match_args__ = ("limit", "spent")

    def __init__(self, limit: int | None = DEFAULT_BUDGET, spent: int = 0) -> None:
        self.limit = limit
        self.spent = spent

    def spend(self, amount: int = 1) -> bool:
        """Consume budget; False once the limit would be exceeded."""
        self.spent += amount
        return self.limit is None or self.spent <= self.limit


class NodeCapExceeded(ValueError):
    """Enumeration was refused because the arena is too large."""


def tarjan_scc(
    successors: Sequence[Sequence[NodeId]],
    allowed: Sequence[bool] | None = None,
) -> list[list[NodeId]]:
    """The cyclic strongly connected components of the subgraph induced by
    ``allowed``: those of two or more nodes, or of one node with a
    self-loop, each a node list, in the order the search completes them.

    A component completes after every component it reaches, so the list
    runs from the sinks up.  One listing run of :func:`_tarjan_from` from
    every node, on fresh marks in which a node outside the mask is
    already finished.
    """
    n = len(successors)
    marks = [-1] * n if allowed is None else [-1 if a else n for a in allowed]
    cyclic: list[list[NodeId]] = []
    _tarjan_from(successors, marks, range(n), [0] * n, cyclic)
    return cyclic


def _tarjan_from(
    successors: Sequence[Sequence[NodeId]],
    marks: list[int],
    starts: Iterable[NodeId],
    stack: list[NodeId],
    cyclic: list[list[NodeId]] | None = None,
) -> None:
    """Iterative Tarjan (SIAM J. Comput. 1(2), 1972) from each node of
    ``starts`` still unvisited, over what it reaches; the one SCC loop of
    the package.  Given a list ``cyclic``, it appends the cyclic
    components to it, as :func:`tarjan_scc` lists them; given None, it
    labels each component in ``marks`` instead.

    ``marks`` holds one number per node, as in Pearce's variant (IPL
    116(1), 2016): -1 for unvisited; a node's position on the component
    stack while it is there, which orders the nodes on the stack as their
    discovery does; and at least ``n = len(marks)`` once its component is
    finished, above every position, so the search needs no other test to
    skip a finished node.  A labelling run marks the nodes of the
    component whose root is ``r`` with ``n + r``, so two reached nodes
    share a component exactly when they share a mark.  A listing run
    marks every single-node component ``n``: it reads no labels, and one
    shared number spares the peel of a big graph, most of whose
    components are single nodes, a new int object each.

    The caller lends ``stack``, at least as long as the nodes the run can
    reach, and owns the marks afterwards: :func:`nesting_tree`'s tasks
    read the labels, then mark unvisited again just the nodes they
    touched, so that one run costs what it reaches, not ``len(marks)``.
    The node being expanded, its low value and its successor iterator are
    locals; those of its ancestors on the search path wait on a stack.
    """
    n = len(marks)
    top = 0  # the component stack is stack[:top]
    path: list[tuple[NodeId, int, Iterator[NodeId]]] = []
    save, restore = path.append, path.pop
    for v in starts:
        if marks[v] != -1:
            continue
        low = marks[v] = top
        stack[top] = v
        top += 1
        branch = iter(successors[v])
        while True:
            for w in branch:
                i = marks[w]
                if i < 0:
                    break
                if i < low:
                    low = i
            else:
                if low == marks[v]:
                    # v is a root: its component is v and the stack above it.
                    if top - low == 1:
                        if cyclic is None:
                            marks[v] = n + v
                        else:
                            marks[v] = n
                            if v in successors[v]:
                                cyclic.append([v])
                    else:
                        comp = stack[low:top]
                        label = n + v
                        for w in comp:
                            marks[w] = label
                        if cyclic is not None:
                            cyclic.append(comp)
                    top = low
                if not path:
                    break
                child_low = low
                v, low, branch = restore()
                if child_low < low:
                    low = child_low
                continue
            save((v, low, branch))
            v = w
            low = marks[v] = top
            stack[top] = v
            top += 1
            branch = iter(successors[v])


def _run_starts(present: list[int]) -> list[int]:
    """The first of each parity run among the ascending distinct colors."""
    return [c for c, below in zip(present, [present[0] - 1, *present]) if (c - below) % 2]


def nesting_tree(
    links: Sequence[Sequence[NodeId]], colors: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """The nested cyclic components of a graph as a tree: each node's
    least enclosing component (-1 for a node on no closed walk), and each
    component's least color and next larger component (-1 at a root).

    A component's ranks are the parity runs of its ascending distinct
    colors.  Below a component hang the cyclic components among its nodes
    of rank 1 or more.  The first two levels rank each component anew;
    below them, a component of several ranks ranks its descendants as it
    ranks its own nodes, so the tree also holds its components at each
    higher rank.  Either way, a closed walk whose least color is d lies in
    a tree component whose least color is at most d and of d's parity:
    the one of d's rank that holds it.

    One :func:`tarjan_scc` run over the whole graph and one masked to the
    nodes of rank 1 or more peel the first two levels.  The children that
    still hold several ranks share one divide and conquer over their ranks
    (Tarjan, "An improved algorithm for hierarchical clustering using
    strong components", IPL 17(1), 1983), which finds the rank at which
    each edge's ends first share a component in O(m log k) for k ranks.
    A task holds edges whose ends share a component at rank ``lo`` but not
    above ``hi``, the components joined above ``hi`` contracted.  It
    decomposes the edges ranked at least its middle: edges inside a
    component go up, the rest go down.  Tasks of one rank join their ends
    in a union-find, highest rank first, and open a tree node on each set
    they make.

    A task's decomposition runs on the union-find roots, which are node
    ids, with no renumbering: it puts its edges into a successor table
    allocated once per call, runs :func:`_tarjan_from` from their tails on
    marks allocated once per call, compares the component labels the run
    leaves at each edge's ends, and then empties the table and marks its
    ends unvisited again.  So a task costs O(its nodes and edges), and
    builds no dict, local graph or component list.
    """
    n = len(links)
    leaf = [-1] * n
    low: list[int] = []
    up: list[int] = []
    live = None
    for _ in range(2):
        components = tarjan_scc(links, live)
        live = [False] * n
        deep: list[tuple[list[NodeId], list[int]]] = []  # of several ranks
        for comp in components:
            present = sorted({colors[u] for u in comp})
            starts = _run_starts(present)
            t = len(low)
            low.append(present[0])
            up.append(leaf[comp[0]])
            if len(starts) > 1:
                deep.append((comp, starts))
                first = starts[1]
            else:
                first = present[-1] + 1  # no node ranks 1
            for u in comp:
                leaf[u] = t
                if colors[u] >= first:
                    live[u] = True
        if not deep:
            return leaf, low, up
    # Each edge between nodes of rank 1 or more inside one child of several
    # ranks, numbered by ascending rank, the lesser of its ends' ranks: its
    # tail, head and rank are in three flat lists at its number.
    rank = [0] * n
    for comp, starts in deep:
        for u in comp:
            rank[u] = bisect_right(starts, colors[u]) - 1
    runs = max(len(starts) for _, starts in deep)
    tails_at: list[list[NodeId]] = [[] for _ in range(runs)]
    heads_at: list[list[NodeId]] = [[] for _ in range(runs)]
    for comp, _ in deep:
        for v in comp:
            rv = rank[v]
            if rv:
                t = leaf[v]
                for u in links[v]:
                    if leaf[u] == t and rank[u]:
                        r = rank[u] if rank[u] < rv else rv
                        tails_at[r].append(v)
                        heads_at[r].append(u)
    edge_rank = [r for r, ends in enumerate(tails_at) for _ in ends]
    edge_tail = list(chain.from_iterable(tails_at))
    edge_head = list(chain.from_iterable(heads_at))
    del tails_at, heads_at
    # A union-find over the nodes holds the sets joined so far, each
    # listing its members under its root, which knows the last tree node
    # opened on its set.  A tree node hangs under the child that holds its
    # nodes until a lower rank joins it.
    root = list(range(n))
    members = [[u] for u in range(n)]
    tree_of = [-1] * n
    # Every task's SCC run borrows these, and hands them back empty and
    # unvisited.
    successors: list[list[NodeId]] = [[] for _ in range(n)]
    marks = [-1] * n
    stack = [0] * n
    # A task lists the numbers of its edges by ascending rank.  It also
    # says whether it was made after the last join: a later join can make
    # some of its edges parallel.
    edges = list(range(len(edge_rank)))
    tasks = [(edges, 0, runs - 1, True)] if edges else []
    while tasks:
        edges, lo, hi, current = tasks.pop()
        # No two ends first share a component above the highest edge rank.
        hi = min(hi, edge_rank[edges[-1]])
        if lo == hi:
            joined = set()
            for e in edges:
                a, b = root[edge_tail[e]], root[edge_head[e]]
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
                below = tree_of[x]  # -1 for a node on its own so far
                t = opened.get(root[x], -1)
                if t < 0:
                    t = opened[root[x]] = len(low)
                    low.append(colors[x])
                    up.append(up[below] if below >= 0 else leaf[x])
                if below < 0:
                    leaf[x] = t
                    least = colors[x]
                else:
                    up[below] = t
                    least = low[below]
                if least < low[t]:
                    low[t] = least
            for r, t in opened.items():
                tree_of[r] = t
            continue
        mid = (lo + hi + 1) // 2
        cut = bisect_left(edges, mid, key=edge_rank.__getitem__)
        ranked = edges[cut:]
        tails = [root[edge_tail[e]] for e in ranked]
        heads = [root[edge_head[e]] for e in ranked]
        if not current:
            # Parallel edges between two sets rank alike up to hi: members
            # of a set joined above hi all rank above hi, so each such edge
            # ranks above hi or as its one end outside such a set.  One edge
            # stands for them all, and the order by rank up to hi holds.
            kept = dict(zip(zip(tails, heads), ranked))
            ranked = list(kept.values())
            tails = [a for a, _ in kept]
            heads = [b for _, b in kept]
        for a, b in zip(tails, heads):
            successors[a].append(b)
        _tarjan_from(successors, marks, tails, stack)
        inside = [marks[a] == marks[b] for a, b in zip(tails, heads)]
        for a in tails:
            successors[a].clear()
            marks[a] = -1
        for b in heads:
            marks[b] = -1
        # The upper half goes on last and so runs first: every rank above a
        # task is joined before the task runs.  Rank 0 is the child itself,
        # so edges left below rank 1 are dropped.
        down = edges[:cut] + list(compress(ranked, map(not_, inside)))
        if down and mid > 1:
            tasks.append((down, lo, mid - 1, False))
        above = list(compress(ranked, inside))
        if above:
            tasks.append((above, mid, hi, True))
    return leaf, low, up


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
    return bool(tarjan_scc(arena.successors, [color == m for color in c]))


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
