"""Parity game solver and solution verification.

The solver is Zielonka's classic recursion [Zie98] adapted to the
min-parity winning condition used throughout this package: player 0 wins a
play iff the minimal color occurring infinitely often is even.  The
recursion therefore peels off the *minimal* color class instead of the
maximal one, and runs as a loop over an explicit stack of subgames, so
its depth is not bounded by Python's recursion limit.

W. Zielonka, "Infinite games on finitely coloured graphs with applications
to automata on infinite trees", TCS 200(1-2), 1998.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .arena import NodeId, ParityGame, Solution
from .cycles import closed_walk_minima
from .cycles import tarjan_scc  # noqa: F401  only perfbench/tracing.py uses it: it rebinds it here


@dataclass(frozen=True)
class Attractor:
    """Result of a one-player reachability closure.

    ``region`` is the least set containing the target from which ``player``
    can force a visit to the target.  ``witness`` maps every player-owned
    node that was pulled in (target nodes excluded) to the successor it was
    first attracted through; these edges are reused as strategy fragments.
    """

    player: int
    region: frozenset[NodeId]
    witness: dict[NodeId, NodeId] = field(default_factory=dict)


def _attract(
    successors: tuple[tuple[NodeId, ...], ...],
    predecessors: tuple[tuple[NodeId, ...], ...],
    owners: tuple[int, ...],
    player: int,
    targets: list[NodeId],
    active: frozenset[NodeId],
) -> tuple[set[NodeId], dict[NodeId, NodeId]]:
    region = set(targets)
    witness: dict[NodeId, NodeId] = {}
    queue = deque(targets)
    escape_count: dict[NodeId, int] = {}
    while queue:
        w = queue.popleft()
        for u in predecessors[w]:
            if u not in active or u in region:
                continue
            if owners[u] == player:
                region.add(u)
                witness[u] = w
                queue.append(u)
            else:
                left = escape_count.get(u)
                if left is None:
                    left = sum(1 for x in successors[u] if x in active)
                left -= 1
                escape_count[u] = left
                if left == 0:
                    region.add(u)
                    queue.append(u)
    return region, witness


def attract(game: ParityGame, player: int, target: set[NodeId]) -> Attractor:
    """Attractor of ``target`` for ``player`` over the whole game."""
    if player not in (0, 1):
        raise ValueError(f"player must be 0 or 1, got {player}")
    arena = game.arena
    bad = [v for v in target if not 0 <= v < arena.node_count]
    if bad:
        raise ValueError(f"target nodes out of range: {bad}")
    active = frozenset(range(arena.node_count))
    region, witness = _attract(
        arena.successors, arena.predecessors, game.owners, player, sorted(target), active
    )
    return Attractor(player=player, region=frozenset(region), witness=witness)


def zielonka_solve(game: ParityGame) -> Solution:
    """Solve the game: winner label per node plus positional strategies.

    Zielonka's recursion on the minimal color class, run as one loop over
    an explicit stack of paused subgames.  With p the least color of the
    current subgame and s = p mod 2, player s attracts to the p-colored
    nodes (the head) and the rest is solved first.  If the opponent wins
    none of it, s wins the whole subgame; otherwise the opponent's region
    is grown by attraction into a trap, and the subgame shrinks to the
    nodes outside it and starts over.  Every move goes into one table as
    its region is settled: attractor witnesses, and the first in-subgame
    successor of s's p-colored nodes.  A later write to a node comes from
    a subgame that re-solves it, so the table ends up holding each
    winner-owned node's move.
    """
    arena = game.arena
    n = arena.node_count
    successors = arena.successors
    predecessors = arena.predecessors
    owners = game.owners
    colors = arena.colors

    move: dict[NodeId, NodeId] = {}
    # A paused subgame: its nodes, the regions its earlier rounds settled,
    # and its head's player, targets and attractor witnesses.
    stack: list[tuple[frozenset[NodeId], tuple[set, set], int, list[NodeId], dict]] = []
    active = frozenset(range(n))
    wins: tuple[set[NodeId], set[NodeId]] = (set(), set())
    while True:
        # Pause each subgame and open the one outside its head.
        while active:
            p = min(colors[v] for v in active)
            s = p % 2
            targets = sorted(v for v in active if colors[v] == p)
            head, head_witness = _attract(successors, predecessors, owners, s, targets, active)
            stack.append((active, wins, s, targets, head_witness))
            active = active - head
            wins = (set(), set())
        if not stack:
            break
        sub_wins = wins
        active, wins, s, targets, head_witness = stack.pop()
        opp = 1 - s
        if sub_wins[opp]:
            trap, trap_witness = _attract(
                successors, predecessors, owners, opp, sorted(sub_wins[opp]), active
            )
            move.update(trap_witness)
            wins[opp].update(trap)
            active = active - trap
        else:
            move.update(head_witness)
            for v in targets:
                if owners[v] == s:
                    move[v] = next(w for w in successors[v] if w in active)
            wins[s].update(active)
            active = frozenset()  # settled: ``wins`` goes back to its opener

    winner = tuple(0 if v in wins[0] else 1 for v in range(n))
    strategy0 = {v: move[v] for v in wins[0] if owners[v] == 0}
    strategy1 = {v: move[v] for v in wins[1] if owners[v] == 1}
    return Solution(winner=winner, strategy0=strategy0, strategy1=strategy1)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a claimed solution; truthy iff the solution holds."""

    ok: bool
    reason: str = ""
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _failure(reason: str, witness: tuple = ()) -> VerificationResult:
    return VerificationResult(ok=False, reason=reason, witness=witness)


def verify_solution(game: ParityGame, solution: Solution) -> VerificationResult:
    """Check a claimed solution without trusting the solver.

    Verifies, in order: the winner labeling is a total {0,1} assignment;
    each strategy is defined exactly on the owner's nodes inside the
    owner's claimed region and follows real edges; both regions are closed
    (strategy moves stay inside, opponent moves cannot leave); and the
    strategy-restricted subgraph of player s's region has no cycle whose
    minimal color has the wrong parity: no node of parity 1-s lies on a
    closed walk whose minimal color is its own.  The smallest such color d
    is reported, with the shortest cycle through a d-colored culprit.
    """
    arena = game.arena
    n = arena.node_count
    colors = arena.colors
    owners = game.owners

    if len(solution.winner) != n:
        return _failure(f"winner labeling has {len(solution.winner)} entries for {n} nodes")
    if any(w not in (0, 1) for w in solution.winner):
        return _failure("winner labeling contains values other than 0 and 1")

    strategies = (solution.strategy0, solution.strategy1)
    for s in (0, 1):
        for v, w in strategies[s].items():
            if not (isinstance(v, int) and 0 <= v < n):
                return _failure(f"strategy for player {s} names unknown node {v!r}")
            if owners[v] != s:
                return _failure(
                    f"strategy for player {s} defined at node {v}, owned by player {owners[v]}",
                    (v,),
                )
            if solution.winner[v] != s:
                return _failure(
                    f"strategy for player {s} defined at node {v} outside the claimed region",
                    (v,),
                )
            if not (isinstance(w, int) and 0 <= w < n) or not arena.has_edge(v, w):
                return _failure(f"strategy move {v} -> {w!r} is not an edge", (v, w))
        for v in range(n):
            if owners[v] == s and solution.winner[v] == s and v not in strategies[s]:
                return _failure(f"player {s} has no strategy move at node {v}", (v,))

    for v in range(n):
        s = solution.winner[v]
        if owners[v] == s:
            w = strategies[s][v]
            if solution.winner[w] != s:
                return _failure(
                    f"strategy move {v} -> {w} leaves player {s}'s region", (v, w)
                )
        else:
            for w in arena.successors[v]:
                if solution.winner[w] != s:
                    return _failure(
                        f"region of player {s} not closed: opponent move {v} -> {w}", (v, w)
                    )

    for s in (0, 1):
        region = [v for v in range(n) if solution.winner[v] == s]
        if not any(colors[v] % 2 != s for v in region):
            continue
        restricted: list[tuple[NodeId, ...]] = [()] * n
        for v in region:
            if owners[v] == s:
                restricted[v] = (strategies[s][v],)
            else:
                restricted[v] = arena.successors[v]
        restricted_succ = tuple(restricted)
        marked = closed_walk_minima(restricted_succ, colors)
        bad = [v for v in region if marked[v] and colors[v] % 2 != s]
        if bad:
            culprit = min(bad, key=lambda v: colors[v])
            d = colors[culprit]
            above = {v for v in region if colors[v] >= d}
            cycle = _cycle_through(restricted_succ, above, culprit)
            return _failure(f"player {s} region admits a cycle of color {d}", tuple(cycle))
    return VerificationResult(ok=True)


def _cycle_through(
    successors: tuple[tuple[NodeId, ...], ...], nodes: set[NodeId], start: NodeId
) -> list[NodeId]:
    """Shortest cycle through ``start`` inside ``nodes``, which must hold one."""
    if start in successors[start]:
        return [start]
    parent: dict[NodeId, NodeId | None] = {}
    queue = deque()
    for w in successors[start]:
        if w in nodes and w not in parent:
            parent[w] = None
            queue.append(w)
    while queue:
        v = queue.popleft()
        if v == start:
            break
        for w in successors[v]:
            if w in nodes and w not in parent:
                parent[w] = v
                queue.append(w)
    hops = []
    v: NodeId | None = start
    while v is not None:
        hops.append(v)
        v = parent[v]
    hops.reverse()
    # hops runs from a direct successor of start back to start; the cycle
    # closes by the implicit edge from its last node to its first.
    return [start] + hops[:-1]
