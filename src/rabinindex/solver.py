"""Parity game solver and solution verification.

The solver is Zielonka's classic recursion [Zie98] adapted to the
min-parity winning condition used throughout this package: player 0 wins a
play iff the minimal color occurring infinitely often is even.  The
recursion therefore peels off the *minimal* colors instead of the maximal
ones: each subgame's head is its lowest parity run, the smallest of its
colors that share the least one's parity, which within the subgame act as
one color.  It runs as a loop over an explicit stack of subgames, so its
depth is not bounded by Python's recursion limit.  Subgames are per-node
marks, never listed or copied; moves are written as they are found.

W. Zielonka, "Infinite games on finitely coloured graphs with applications
to automata on infinite trees", TCS 200(1-2), 1998.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import chain, islice
from operator import eq, mul

from .arena import FrozenRecord, NodeId, ParityGame, Solution
from .cycles import nesting_tree
from .cycles import tarjan_scc  # noqa: F401  only perfbench/tracing.py uses it: it rebinds it here

# The mark of a trap's targets while it is attracted: below every depth
# and apart from -1, the mark of the nodes already trapped.
LOST = -2


def _attract(
    game: ParityGame,
    player: int,
    targets: list[NodeId],
    level: list[int],
    d: int,
    move: dict[NodeId, NodeId],
    sources: list[NodeId] | None = None,
) -> list[NodeId]:
    """Attractor of ``targets`` for ``player`` inside the subgame opened at
    depth d.  ``level`` marks each of the subgame's nodes free (the node
    count, above every depth) or d, and every other node below d.  Marks
    each attracted node d and writes to ``move`` each pulled player node's
    move.  In both modes it returns the targets, then the nodes it
    attracted in breadth-first order (the search's queue).

    Without ``sources`` the targets are marked d and the search starts
    from them.  With ``sources`` it is Zielonka's trap: the targets are the
    region W that the opponent of the head's player s won in the subgame's
    rest G', and ``sources`` is the head.  G' is the complement of s's
    attractor, so none of s's nodes in G' has an edge into the head, and
    the region s won in G' is a trap for ``player`` there: the attractor
    of W leaves W only through the head.  So W is marked ``LOST``, its
    predecessors are never read, and the search starts from the sources
    with an edge into a node marked ``LOST`` (not -1: an earlier trap is
    not W).  ``LOST`` is below every depth, so no escape count includes an
    edge into W, which no scan would count down."""
    successors = game.arena.successors
    predecessors = game.arena.predecessors
    owners = game.owners
    free = len(level)
    region = list(targets)
    escapes: dict[NodeId, int] = {}
    if sources is None:
        start = 0
        for v in region:
            level[v] = d
    else:
        start = len(region)
        for v in region:
            level[v] = LOST
        for u in sources:
            for w in successors[u]:
                if level[w] == LOST:
                    break
            else:
                continue
            if owners[u] == player:
                move[u] = w
            else:
                left = 0
                for x in successors[u]:
                    if level[x] >= d:
                        left += 1
                if left:
                    escapes[u] = left
                    continue
            level[u] = d
            region.append(u)
    for w in islice(region, start, None):
        for u in predecessors[w]:
            if level[u] != free:
                continue
            if owners[u] == player:
                level[u] = d
                move[u] = w
                region.append(u)
            else:
                left = escapes.get(u)
                if left is None:  # a plain loop: ~3x cheaper than sum() here
                    left = 0
                    for x in successors[u]:
                        if level[x] >= d:
                            left += 1
                left -= 1
                escapes[u] = left
                if left == 0:
                    level[u] = d
                    region.append(u)
    return region


def zielonka_solve(game: ParityGame) -> Solution:
    """Solve the game: winner label per node plus positional strategies.

    Zielonka's recursion on the minimal colors, run as one loop over an
    explicit stack of paused subgames.  With p the least color of the
    current subgame and s = p mod 2, the subgame's lowest parity run is
    the set of its colors below its least color of the other parity.  In
    the subgame those colors decide every play as p alone would (the
    static compression of its coloring merges them), so player s attracts
    to all nodes of the run (the head) and the rest is solved first.  If
    the opponent wins none of it, s wins the whole subgame; otherwise the
    opponent's region is grown by attraction into a trap, and the subgame
    shrinks to the nodes outside it and starts over.  That region can be
    left only through the head, so the trap's attractor starts from the
    head's nodes with an edge into it and never reads its predecessors
    (see :func:`_attract`).  Moves are written as
    found, by attractors and, right after a head is attracted, for the
    targets s owns.  A node's last write comes from the round that settles
    it: a write from a round that ends in a trap is either overwritten
    later or sits on a node that its owner does not win.

    A level costs only its head's attractor work: no subgame is ever
    listed.  ``level`` marks the nodes of the innermost open subgame free
    (n), each head's nodes the depth of the subgame that took them, and
    trapped nodes -1.  One color order serves every subgame: a cursor into
    it finds the least free color, the head's targets are the free nodes
    from there up to the first free node of the other parity, and the
    subgame's rest starts at that node.  A closing subgame hands its
    opener the regions each player won, as the node lists its attractors
    made; the opponent's are the trap's targets, marked ``LOST`` while it
    is attracted and -1 with the rest of the trap after.  Closing or
    starting over, a subgame frees only the nodes it marked.
    """
    arena = game.arena
    n = arena.node_count
    successors = arena.successors
    owners = game.owners
    colors = arena.colors

    free = n
    level = [free] * n
    order = sorted(range(n), key=colors.__getitem__)
    ordered = [colors[v] for v in order]
    move: dict[NodeId, NodeId] = {}
    # A paused subgame: its cursor, node count and traps (each player's,
    # as node lists), and its head's player and nodes.
    stack: list[tuple[int, int, list, int, list[NodeId]]] = []
    # The subgame to open next, by its cursor, node count and traps (size 0
    # once one has closed instead), and the regions of the subgame that
    # closed last: the node lists each player won.
    first, size, traps = 0, n, [[], []]
    regions: list[list[list[NodeId]]] = [[], []]
    while True:
        if size:  # pause this subgame at its head and open its rest
            d = len(stack)
            while level[order[first]] != free:
                first += 1
            s = ordered[first] % 2
            targets = []
            end = first
            while end < n:
                v = order[end]
                if level[v] == free:
                    if ordered[end] % 2 != s:
                        break
                    targets.append(v)
                end += 1
            head = _attract(game, s, targets, level, d, move)
            for v in targets:
                if owners[v] == s:
                    for w in successors[v]:  # a plain loop: cheaper than next()
                        if level[w] >= d:
                            move[v] = w
                            break
            stack.append((first, size, traps, s, head))
            first, size, traps = end, size - len(head), [[], []]
            continue
        if not stack:
            break
        first, size, traps, s, head = stack.pop()
        d = len(stack)
        opp = 1 - s
        for v in head:
            level[v] = free
        if regions[opp]:
            lost = list(chain.from_iterable(regions[opp]))
            trap = _attract(game, opp, lost, level, d, move, sources=head)
            for v in trap:
                level[v] = -1
            traps[opp].append(trap)
            size -= len(trap)
            regions = [[], []]
        else:
            regions[s].append(head)
            size = 0
        if not size:  # closed: its traps go back to its opener too
            for lists, trapped in zip(regions, traps):
                for trap in trapped:
                    for v in trap:
                        level[v] = free
                lists += trapped

    won = [0] * n
    for region in regions[1]:
        for v in region:
            won[v] = 1
    strategy0 = {v: move[v] for v in range(n) if won[v] == 0 and owners[v] == 0}
    strategy1 = {v: move[v] for v in range(n) if won[v] == 1 and owners[v] == 1}
    return Solution(winner=tuple(won), strategy0=strategy0, strategy1=strategy1)


class VerificationResult(FrozenRecord):
    """Outcome of checking a claimed solution; truthy iff the solution holds."""

    __match_args__ = ("ok", "reason", "witness")

    def __init__(self, ok: bool, reason: str = "", witness: tuple = ()) -> None:
        self.__dict__.update(ok=ok, reason=reason, witness=witness)

    def __bool__(self) -> bool:
        return self.ok


def _failure(reason: str, witness: tuple = ()) -> VerificationResult:
    return VerificationResult(ok=False, reason=reason, witness=witness)


def verify_solution(game: ParityGame, solution: Solution) -> VerificationResult:
    """Check a claimed solution without trusting the solver.

    Verifies, in order: the winner labeling is a total {0,1} assignment;
    each strategy is defined exactly on the owner's nodes inside the
    owner's claimed region and follows real edges; both regions are closed
    (strategy moves stay inside, opponent moves cannot leave); and neither
    region admits a cycle of the wrong parity under its winner's strategy.

    Each strategy is checked entry by entry.  Every valid entry is one of
    the nodes its player owns inside its region, so a node without a move
    is looked for only when the entries are fewer than those nodes.  The
    closure check records the strategy-restricted graph as it goes: the
    strategy move at a node its winner owns, every successor elsewhere, and
    no move in a region without a color of its winner's wrong parity.  No
    move leaves its region, so one :func:`~rabinindex.cycles.nesting_tree`
    over that graph checks both: a region is lost iff one of its nodes has
    a least enclosing component whose least color is of the wrong parity.
    Player 0's region is reported before player 1's, with its smallest such
    color d, the least wrong-parity minimum of a closed walk in it, and the
    shortest cycle through its lowest d-colored node whose least enclosing
    component has least color d.
    """
    arena = game.arena
    n = arena.node_count
    colors = arena.colors
    owners = game.owners
    winner = solution.winner

    if len(winner) != n:
        return _failure(f"winner labeling has {len(winner)} entries for {n} nodes")
    # 0.0, 1.0, False and True count as 0 and 1, but only ints are winners,
    # as in Arena, ParityGame and write_solution.
    if winner.count(0) + winner.count(1) != n or not {*map(type, winner)} <= {int}:
        return _failure("winner labeling contains values other than 0 and 1")

    successors = arena.successors
    strategies = (solution.strategy0, solution.strategy1)
    # Nodes each player owns inside its own region: those need a move.
    owned1 = sum(map(mul, owners, winner))
    owned = (sum(map(eq, owners, winner)) - owned1, owned1)
    for s in (0, 1):
        for v, w in strategies[s].items():
            if not (type(v) is int and 0 <= v < n):
                return _failure(f"strategy for player {s} names unknown node {v!r}")
            if owners[v] != s:
                return _failure(
                    f"strategy for player {s} defined at node {v}, owned by player {owners[v]}",
                    (v,),
                )
            if winner[v] != s:
                return _failure(
                    f"strategy for player {s} defined at node {v} outside the claimed region",
                    (v,),
                )
            if not (type(w) is int and 0 <= w < n) or w not in successors[v]:
                return _failure(f"strategy move {v} -> {w!r} is not an edge", (v, w))
        if len(strategies[s]) != owned[s]:
            for v in range(n):
                if owners[v] == s and winner[v] == s and v not in strategies[s]:
                    return _failure(f"player {s} has no strategy move at node {v}", (v,))

    # The regions that hold a color of the wrong parity; only these walk.
    # Each test stops at its region's first such color.
    walked = {s for s in (0, 1) if any(c % 2 != s for c, w in zip(colors, winner) if w == s)}
    moves: list[Sequence[NodeId]] = [()] * n
    for v in range(n):
        s = winner[v]
        if owners[v] == s:
            w = strategies[s][v]
            if winner[w] != s:
                return _failure(
                    f"strategy move {v} -> {w} leaves player {s}'s region", (v, w)
                )
            out: Sequence[NodeId] = (w,)
        else:
            out = successors[v]
            for w in out:
                if winner[w] != s:
                    return _failure(
                        f"region of player {s} not closed: opponent move {v} -> {w}", (v, w)
                    )
        if s in walked:
            moves[v] = out

    if walked:
        leaf, low, _ = nesting_tree(moves, colors)
        # Each tree component lies in one region; -1 holds the nodes on no cycle.
        region_of = dict(zip(leaf, winner))
        region_of.pop(-1, None)
        lost = [(s, low[t]) for t, s in region_of.items() if low[t] % 2 != s]
        if lost:
            s, d = min(lost)
            culprit = next(
                v
                for v, t in enumerate(leaf)
                if t >= 0 and winner[v] == s and colors[v] == d == low[t]
            )
            cycle = tuple(_cycle_through(moves, colors, culprit))
            return _failure(f"player {s} region admits a cycle of color {d}", cycle)
    return VerificationResult(ok=True)


def _cycle_through(
    successors: Sequence[Sequence[NodeId]], colors: Sequence[int], start: NodeId
) -> list[NodeId]:
    """Shortest cycle through ``start`` among the nodes colored at least
    ``start``'s color, which must hold one."""
    d = colors[start]
    parent: dict[NodeId, NodeId] = {}
    queue = deque([start])
    while start not in parent:
        v = queue.popleft()
        for w in successors[v]:
            if colors[w] >= d and w not in parent:
                parent[w] = v
                queue.append(w)
    hops = []
    v = parent[start]
    while v != start:
        hops.append(v)
        v = parent[v]
    return [start] + hops[::-1]
