"""Brute-force reference oracles for cycle equivalence and Rabin-type indices.

Everything in this module is deliberately naive: equivalence is decided by
enumerating the relevant cycle families outright, and index minimisation is
an exhaustive search over candidate colorings.  The point is independence
from the production reduction passes, so the two can be cross-checked on
small arenas.  All entry points accept a ``node_cap`` guard and refuse
arenas that would make enumeration explode.
"""

from __future__ import annotations

from itertools import product

from .arena import Arena, Coloring, NodeId, ParityGame, index
from .cycles import NodeCapExceeded, enumerate_simple_cycles, strongly_connected_subsets

#: Cycle families a constraint can range over.  "simple" quantifies over
#: simple cycles, "alpha" over closed walks (represented by their visited
#: node sets, which are exactly the strongly connected subsets).
RELATIONS = ("simple", "alpha")


def _checked_relation(relation: str) -> str:
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    return relation


def cycle_families(
    arena: Arena,
    relation: str = "simple",
    node_cap: int | None = None,
) -> tuple[tuple[NodeId, ...], ...]:
    """Node sets of all cycles in the given family, each sorted ascending.

    For ``relation="simple"`` these are the node sets of simple cycles; for
    ``relation="alpha"`` the strongly connected subsets, i.e. the possible
    visited sets of closed walks.  The color of any cycle over such a set is
    the minimum color on the set, so these tuples carry everything the
    equivalence relations can observe.  ``node_cap=None`` applies the
    enumerating function's own default cap.
    """
    cap = {} if node_cap is None else {"node_cap": node_cap}
    if _checked_relation(relation) == "simple":
        cycles = enumerate_simple_cycles(arena, **cap)
        return tuple(sorted({tuple(sorted(cycle)) for cycle in cycles}))
    subsets = strongly_connected_subsets(arena, **cap)
    return tuple(sorted(tuple(sorted(nodes)) for nodes in subsets))


def _parity_of_min(coloring: Coloring, nodes: tuple[NodeId, ...]) -> int:
    return min(coloring[v] for v in nodes) % 2


def equivalence_witness(
    arena: Arena,
    first: Coloring,
    second: Coloring,
    relation: str = "simple",
    node_cap: int | None = None,
) -> tuple[NodeId, ...] | None:
    """A cycle node set on which the two colorings disagree, or None.

    Returns the node set of some cycle (of the requested family) whose
    color parity differs between ``first`` and ``second``; ``None`` means
    the colorings are equivalent under that relation.
    """
    first = arena.checked_colors(first)
    second = arena.checked_colors(second)
    for nodes in cycle_families(arena, relation, node_cap):
        if _parity_of_min(first, nodes) != _parity_of_min(second, nodes):
            return nodes
    return None


def colorings_equivalent(
    arena: Arena,
    first: Coloring,
    second: Coloring,
    relation: str = "simple",
    node_cap: int | None = None,
) -> bool:
    """Decide c = c' (relation "simple") or its closed-walk variant ("alpha")."""
    return equivalence_witness(arena, first, second, relation, node_cap) is None


def _search_order(
    node_count: int,
    constraints: tuple[tuple[tuple[NodeId, ...], int], ...],
) -> list[NodeId]:
    """Assignment order that makes constraints complete early.

    Greedy: repeatedly pick the node that appears in the most constraints
    not yet fully ordered, so the backtracking search can prune as soon as
    possible.  Unconstrained nodes go last (their colors are free).
    """
    remaining = [set(nodes) for nodes, _ in constraints]
    ordered: list[NodeId] = []
    left = set(range(node_count))
    while left:
        best = max(left, key=lambda v: (sum(v in req for req in remaining), -v))
        ordered.append(best)
        left.discard(best)
        for req in remaining:
            req.discard(best)
    return ordered


def _satisfiable(
    order: list[NodeId],
    domains: dict[NodeId, range],
    constraints: tuple[tuple[tuple[NodeId, ...], int], ...],
) -> bool:
    position = {v: i for i, v in enumerate(order)}
    # Constraints indexed by the position at which their last node is assigned.
    completing: list[list[tuple[tuple[NodeId, ...], int]]] = [[] for _ in order]
    for nodes, parity in constraints:
        completing[max(position[v] for v in nodes)].append((nodes, parity))

    # Depth-first over the order, one iterator of untried colors per
    # assigned node; no recursion, so the depth may exceed Python's limit.
    assignment: dict[NodeId, int] = {}
    untried = [iter(domains[order[0]])]
    while untried:
        depth = len(untried) - 1
        node = order[depth]
        for color in untried[-1]:
            assignment[node] = color
            if all(
                min(assignment[v] for v in nodes) % 2 == parity
                for nodes, parity in completing[depth]
            ):
                break
        else:
            untried.pop()
            continue
        if depth + 1 == len(order):
            return True
        untried.append(iter(domains[order[depth + 1]]))
    return False


def brute_force_rabin_index(
    arena: Arena,
    coloring: Coloring | None = None,
    relation: str = "simple",
    node_cap: int | None = None,
    bounded_by_input: bool = True,
) -> int:
    """Smallest index of any coloring equivalent to ``coloring``.

    Works by exhaustive search: for k = 0, 1, ... test whether some
    assignment with all colors <= k matches the parity of every cycle
    constraint.  With ``bounded_by_input`` the per-node candidate colors
    are further capped at the input color, which is sound (the reduction
    passes only ever lower colors and reach the optimum) and much faster;
    disable it to run the unrestricted search as a cross-check.
    """
    colors = arena.checked_colors(coloring)
    families = cycle_families(arena, relation, node_cap)
    constraints = tuple((nodes, _parity_of_min(colors, nodes)) for nodes in families)
    order = _search_order(arena.node_count, constraints)
    for k in range(index(colors) + 1):
        if bounded_by_input:
            domains = {v: range(min(k, colors[v]) + 1) for v in order}
        else:
            domains = {v: range(k + 1) for v in order}
        if _satisfiable(order, domains, constraints):
            return k
    # The input coloring satisfies its own constraints, so k = index(colors)
    # always succeeds and the loop cannot fall through.
    raise AssertionError("unreachable: input coloring satisfies its own constraints")


def fixpoint_violations(
    arena: Arena,
    coloring: Coloring,
    relation: str = "simple",
    node_cap: int | None = None,
) -> list[str]:
    """Check the two stability conditions of a fully reduced coloring.

    A coloring that no reduction pass can improve satisfies: (a) some cycle
    of the family realises the maximal color, and (b) every node with color
    above 1 lies on a cycle of color exactly one less.  Returns a list of
    human-readable violations (empty = fixpoint conditions hold).
    """
    coloring = arena.checked_colors(coloring)
    families = cycle_families(arena, relation, node_cap)
    mins = [min(coloring[v] for v in nodes) for nodes in families]
    problems: list[str] = []
    top = index(coloring)
    if top > 0 and top not in mins:
        problems.append(f"no cycle realises the maximal color {top}")
    for v in range(arena.node_count):
        want = coloring[v] - 1
        if coloring[v] <= 1:
            continue
        if not any(v in nodes and m == want for nodes, m in zip(families, mins)):
            problems.append(f"node {v} (color {coloring[v]}) lies on no cycle of color {want}")
    return problems


def outcome_profile(arena: Arena, coloring: Coloring, choice: tuple[NodeId, ...]) -> tuple[int, ...]:
    """Per-node winner when every node commits to one successor.

    ``choice[v]`` must be a successor of v.  Following the choices from any
    start node yields an eventually periodic play; the winner at that node
    is the parity of the minimal color on the reached cycle.  Ownership is
    irrelevant here: a full choice function is exactly a pair of positional
    strategies, one per player, for any ownership split.
    """
    n = arena.node_count
    if len(choice) != n:
        raise ValueError("choice length does not match arena")
    for v, w in enumerate(choice):
        if not arena.has_edge(v, w):
            raise ValueError(f"choice at node {v} is not along an edge: {w}")
    winners: list[int] = [-1] * n
    for start in range(n):
        seen: dict[NodeId, int] = {}
        path: list[NodeId] = []
        v = start
        while v not in seen and winners[v] < 0:
            seen[v] = len(path)
            path.append(v)
            v = choice[v]
        if winners[v] >= 0:
            tail_winner = winners[v]
            for u in path:
                winners[u] = tail_winner
        else:
            loop = path[seen[v]:]
            tail_winner = min(coloring[u] for u in loop) % 2
            for u in path:
                winners[u] = tail_winner
    return tuple(winners)


def brute_force_winners(game: ParityGame, max_profiles: int = 200_000) -> tuple[int, ...]:
    """Winner labeling by enumerating all positional strategy pairs.

    Player 0 wins node v iff some player-0 strategy beats every player-1
    strategy starting from v; by positional determinacy that decides every
    node.  The profile count is the product of all out-degrees, guarded by
    ``max_profiles``.
    """
    arena = game.arena
    n = arena.node_count
    total = 1
    for succ in arena.successors:
        total *= len(succ)
    if total > max_profiles:
        raise NodeCapExceeded(
            f"{total} strategy profiles exceed the cap of {max_profiles}"
        )
    mine = [v for v in range(n) if game.owners[v] == 0]
    theirs = [v for v in range(n) if game.owners[v] == 1]
    colors = arena.colors
    win0 = [False] * n
    for sigma in product(*(arena.successors[v] for v in mine)):
        fixed = dict(zip(mine, sigma))
        good = [not w for w in win0]  # only undecided nodes still need work
        if not any(good):
            break
        for pi in product(*(arena.successors[v] for v in theirs)):
            fixed.update(zip(theirs, pi))
            choice = tuple(fixed[v] for v in range(n))
            profile = outcome_profile(arena, colors, choice)
            for v in range(n):
                if profile[v] == 1:
                    good[v] = False
            if not any(good):
                break
        for v in range(n):
            if good[v]:
                win0[v] = True
    return tuple(0 if win0[v] else 1 for v in range(n))
