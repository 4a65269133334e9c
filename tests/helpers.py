"""Shared builders for randomized and property-based tests."""

from __future__ import annotations

import os
import random
import re
import sys
from math import inf
from typing import NamedTuple, Sequence

from hypothesis import strategies as st

from rabinindex.arena import Arena, ParityGame, Solution
from rabinindex import cycles, solver
from rabinindex.cycles import tarjan_scc
from rabinindex.generators import RandomConfig
from rabinindex.reduction import OracleMode, ReductionReport, _PassState


def random_arena(
    rng: random.Random,
    min_nodes: int = 2,
    max_nodes: int = 6,
    max_color: int = 5,
    max_degree: int = 3,
    allow_self_loops: bool = False,
) -> Arena:
    """Total arena with bounded size, degree, and colors."""
    n = rng.randint(min_nodes, max_nodes)
    successors = []
    for v in range(n):
        population = [w for w in range(n) if allow_self_loops or w != v]
        degree = rng.randint(1, min(max_degree, len(population)))
        successors.append(tuple(sorted(rng.sample(population, degree))))
    colors = tuple(rng.randint(0, max_color) for _ in range(n))
    return Arena(tuple(successors), colors)


def max_color_on_closed_walk(arena: Arena, colors=None) -> bool:
    """Closed-walk analogue of ``simple_cycle_with_max_color``.

    The two agree on every arena: a closed walk whose minimum equals the
    global maximum visits max-colored nodes only, and can be shortened to a
    simple cycle.
    """
    c = arena.colors if colors is None else colors
    top = max(c)
    marked = closed_walk_minima_reference(arena.successors, c)
    return any(on_walk and color == top for on_walk, color in zip(marked, c))


def nested_path(n: int) -> Arena:
    """Two-way path colored 0, 2, 4, ...: removing either end leaves one
    shorter path, so its components nest one level per node."""
    succ = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
    return Arena.from_lists(succ, [2 * v for v in range(n)])


def parity_path(n: int) -> Arena:
    """Two-way path colored ``v`` at even ``v`` and ``v + 2`` at odd ``v``:
    the parity of the colors above each threshold switches once per node,
    so its components nest one parity run per two nodes."""
    succ = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
    return Arena.from_lists(succ, [v + 2 * (v % 2) for v in range(n)])


def pendant_path(m: int) -> Arena:
    """Two-way path of m nodes 0, 2, 4, ..., each colored its id and with a
    pendant next to it: node 2k + 1, colored 2k + 1, whose one successor is
    2k.  The least colors 2k and 2k + 1 differ in parity, so Zielonka's
    head takes node 2k alone, and attracts its pendant: the subgames nest
    one level per path node."""
    succ = []
    for v in range(0, 2 * m, 2):
        succ.append([w for w in (v - 2, v + 2) if 0 <= w < 2 * m] + [v + 1])
        succ.append([v])
    return Arena.from_lists(succ, list(range(2 * m)))


def threshold_reach(links, colors, v: int, gamma: int) -> set[int]:
    """Nodes reached from ``v`` along ``links`` (successors, or predecessors
    for the nodes that reach ``v``) through nodes colored at least gamma."""
    found = {v}
    frontier = [v]
    while frontier:
        for u in links[frontier.pop()]:
            if u not in found and colors[u] >= gamma:
                found.add(u)
                frontier.append(u)
    return found


def count_tarjan_calls(monkeypatch) -> list[int]:
    """Count the runs of the package's one Tarjan loop,
    ``cycles._tarjan_from``: one entry, the length of the successor table
    it gets, per run.  :func:`tarjan_scc` runs it once per call, and each
    task of ``nesting_tree``'s divide and conquer once, on a table as long
    as the whole graph.  The reference builders here call it too."""
    return count_tarjan_work(monkeypatch)[0]


def count_tarjan_work(monkeypatch) -> tuple[list[int], list[int], list]:
    """Like :func:`count_tarjan_calls`, and also the edges handed to each
    run (the summed length of its start nodes' successor lists: every
    edge for :func:`tarjan_scc`, mask or not, and a task's own edges, the
    only ones in its table) and each run's mask, the nodes it finds
    unvisited, None when that is all of them."""
    calls: list[int] = []
    edges: list[int] = []
    masks: list = []
    real = cycles._tarjan_from

    def counting(successors, marks, starts, stack, cyclic=None):
        calls.append(len(successors))
        edges.append(sum(len(successors[v]) for v in set(starts)))
        masks.append(None if marks.count(-1) == len(marks) else [m == -1 for m in marks])
        return real(successors, marks, starts, stack, cyclic)

    monkeypatch.setattr(cycles, "_tarjan_from", counting)
    return calls, edges, masks


def replay(colors: Sequence[int], report: ReductionReport) -> tuple[int, ...]:
    """The coloring an exact run's report leads to from ``colors``: every
    change of its iterations applied in order, each from the color the
    node has then; the report's rank trace must hold the color sum before
    and after each iteration."""
    c = list(colors)
    sums = [sum(c)]
    for iteration in report.iterations:
        for v, old, new in iteration.cycle_changes + iteration.form_changes:
            assert c[v] == old, f"node {v} has color {c[v]}, not {old}"
            c[v] = new
        sums.append(sum(c))
    assert sums == report.rank_trace
    return tuple(c)


def alpha_form_reference(arena: Arena) -> tuple[int, ...]:
    """The alpha form by one decomposition per parity switch of the
    nesting: each level runs one :func:`tarjan_scc` over the live nodes and
    gives every cyclic component ``base + (least color - base) % 2``,
    where ``base`` is the value of the component that held it (0 at
    first).  Only its nodes at or above its least color of the other
    parity stay live for the next level."""
    c = arena.colors
    n = arena.node_count
    form = [0] * n
    live = None
    while True:
        components = tarjan_scc(arena.predecessors, live)
        live = [False] * n
        for comp in components:
            low = min(c[u] for u in comp)
            value = form[comp[0]] + (low - form[comp[0]]) % 2
            switch = min((c[u] for u in comp if (c[u] - low) % 2), default=inf)
            for u in comp:
                form[u] = value
                live[u] = c[u] >= switch
        if not any(live):
            return tuple(form)


def closed_walk_minima_reference(
    successors: Sequence[Sequence[int]], colors: Sequence[int]
) -> list[bool]:
    """Mark every node ``u`` on a closed walk whose minimal color is
    ``colors[u]``, by one :func:`tarjan_scc` run per level of the nesting,
    the first over the whole graph and each later one masked to the live
    nodes: each level marks every component's least-colored nodes and
    leaves the rest live.  A closed walk through any other node avoids the
    least color of its component, so it stays inside what is left of that
    component."""
    n = len(successors)
    marked = [False] * n
    live = None
    while True:
        components = tarjan_scc(successors, live)
        live = [False] * n
        left = False
        for comp in components:
            low = min(colors[u] for u in comp)
            for u in comp:
                if colors[u] == low:
                    marked[u] = True
                else:
                    live[u] = left = True
        if not left:
            return marked


def walk_verdict_reference(game: ParityGame, solution: Solution):
    """What :func:`solver.verify_solution` should find once the claimed
    strategies are valid: "open" when a move of the strategy-restricted
    graph leaves its region, else ``(player, color, culprit)`` for the
    least player whose region holds a closed walk whose minimal color is
    of the wrong parity, that least such color, and the least node marked
    with it by :func:`closed_walk_minima_reference`; None when no region
    holds one."""
    winner = solution.winner
    strategies = (solution.strategy0, solution.strategy1)
    moves = [
        (strategies[s][v],) if game.owners[v] == s else game.arena.successors[v]
        for v, s in enumerate(winner)
    ]
    if any(winner[w] != winner[v] for v, out in enumerate(moves) for w in out):
        return "open"
    colors = game.arena.colors
    marked = closed_walk_minima_reference(moves, colors)
    return min(
        (
            (winner[v], colors[v], v)
            for v in range(game.node_count)
            if marked[v] and colors[v] % 2 != winner[v]
        ),
        default=None,
    )


def walk_verdict(game: ParityGame, solution: Solution):
    """:func:`solver.verify_solution`'s verdict in the terms of
    :func:`walk_verdict_reference`; its reason for any other rejection."""
    result = solver.verify_solution(game, solution)
    if result:
        return None
    if "leaves" in result.reason or "not closed" in result.reason:
        return "open"
    found = re.fullmatch(r"player (\d) region admits a cycle of color (\d+)", result.reason)
    if found is None:
        return result.reason
    return int(found[1]), int(found[2]), result.witness[0]


def blocks_arena(rng: random.Random) -> Arena:
    """Strongly connected blocks and loose nodes in a row, each with edges
    only to later ones, so each block is a component of its own; node ids
    shuffled.  A block is a ring with chords, colored with one parity, a
    few runs or many, or a two-way path whose colors climb from a point
    near one end outward, so it nests one level per node.  Every arena has
    a path of at least 40 nodes and a ring of one parity.  Some nodes have
    self-loops, loose ones included."""

    def ring(size: int, colors: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
        edges = [(v, (v + 1) % size) for v in range(size)]
        edges += [(rng.randrange(size), rng.randrange(size)) for _ in range(size)]
        return colors, edges

    def path(size: int) -> tuple[list[int], list[tuple[int, int]]]:
        steps = [rng.choice((1, 1, 2, 3)) for _ in range(size)]
        start = rng.randrange(size // 4 + 1)
        colors = [sum(steps[min(v, start) : max(v, start)]) for v in range(size)]
        return colors, [(v, w) for v in range(size) for w in (v - 1, v + 1) if 0 <= w < size]

    size = rng.randint(2, 30)
    units = [
        path(rng.randint(40, 80)),
        ring(size, [2 * rng.randint(0, 9) + 1 for _ in range(size)]),
    ]
    for _ in range(rng.randint(3, 10)):
        if rng.random() < 0.3:
            units.append(([rng.randint(0, 60)], []))  # a loose node
            continue
        size = rng.randint(2, 30)
        if rng.random() < 0.3:
            units.append(path(size))
        else:
            top = rng.choice((3, 12, 80))
            units.append(ring(size, [rng.randint(0, top) for _ in range(size)]))
    rng.shuffle(units)
    units.append(([1, 0, 2], [(0, 1), (1, 2), (2, 0)]))
    offsets = [0]
    for colors, _ in units:
        offsets.append(offsets[-1] + len(colors))
    n = offsets[-1]
    succ: list[set[int]] = [set() for _ in range(n)]
    for i, (_, inner) in enumerate(units):
        for v, w in inner:
            succ[offsets[i] + v].add(offsets[i] + w)
        for v in range(offsets[i], offsets[i + 1]):
            if rng.random() < 0.1:
                succ[v].add(v)
            if i + 1 < len(units) and (not succ[v] or rng.random() < 0.2):
                succ[v].add(rng.randrange(offsets[i + 1], n))
    ids = list(range(n))
    rng.shuffle(ids)
    lists: list[list[int]] = [[] for _ in range(n)]
    colors = [0] * n
    for v, c in enumerate(c for unit_colors, _ in units for c in unit_colors):
        lists[ids[v]] = sorted(ids[w] for w in succ[v])
        colors[ids[v]] = c
    return Arena.from_lists(lists, colors)


def get_anchor(arena: Arena, coloring, v: int, budget_limit=None) -> int:
    """Anchor of ``v`` from a fresh exact pass state over ``coloring`` (or
    the arena's own): the largest opposite-parity color below ``c(v)``
    realized as the color of a simple cycle through ``v``, or -1."""
    colors = list(arena.colors if coloring is None else coloring)
    report = ReductionReport(OracleMode.EXACT, 0, 0)
    return _PassState(arena, colors, budget_limit, report).anchor(v)


class Attraction(NamedTuple):
    region: frozenset[int]
    witness: dict[int, int]


def attract(game: ParityGame, player: int, target: set[int]) -> Attraction:
    """The solver's attractor of ``target`` for ``player`` over the whole
    game, and the successor each attracted player node was pulled through."""
    n = game.node_count
    witness: dict[int, int] = {}
    region = solver._attract(game, player, sorted(target), [n] * n, 0, witness)
    return Attraction(frozenset(region), witness)


def _attract_reference(game, player, targets, nodes, level, d):
    """The attractor of :func:`zielonka_reference`: marks all of ``nodes``
    d + 1 (every other node is below d), then each attracted node d, and
    lists those in breadth-first order, targets first."""
    successors = game.arena.successors
    predecessors = game.arena.predecessors
    owners = game.owners
    outside = d + 1
    for v in nodes:
        level[v] = outside
    region = list(targets)
    for v in region:
        level[v] = d
    witness = {}
    escapes = {}
    for w in region:
        for u in predecessors[w]:
            if level[u] != outside:
                continue
            if owners[u] == player:
                level[u] = d
                witness[u] = w
                region.append(u)
            else:
                left = escapes.get(u)
                if left is None:
                    left = sum(1 for x in successors[u] if level[x] >= d)
                left -= 1
                escapes[u] = left
                if left == 0:
                    level[u] = d
                    region.append(u)
    return region, witness


def zielonka_reference(game: ParityGame) -> Solution:
    """The same loop as :func:`solver.zielonka_solve` over subgames kept as
    ascending node lists: every level lists its rest and re-marks its whole
    subgame, so it costs time linear in the subgame.  Each head attracts to
    the subgame's lowest parity run.  A subgame opened at
    depth d marks its head d, the rest d + 1 and a trapped node -1; ``won``
    holds each settled node's winner."""
    arena = game.arena
    n = arena.node_count
    successors = arena.successors
    owners = game.owners
    colors = arena.colors
    level = [0] * n
    won = [0] * n
    move = {}
    stack = []
    nodes = list(range(n))
    while True:
        while nodes:
            d = len(stack)
            s = min(colors[v] for v in nodes) % 2
            # The lowest parity run: every color below the least one of
            # the other parity, its nodes in color order.
            q = min((colors[v] for v in nodes if colors[v] % 2 != s), default=inf)
            targets = sorted((v for v in nodes if colors[v] < q), key=colors.__getitem__)
            _, head_witness = _attract_reference(game, s, targets, nodes, level, d)
            stack.append((nodes, s, targets, head_witness))
            nodes = [v for v in nodes if level[v] != d]
        if not stack:
            break
        nodes, s, targets, head_witness = stack.pop()
        d = len(stack)
        opp = 1 - s
        lost = [v for v in nodes if level[v] != d and won[v] == opp]
        if lost:
            trap, trap_witness = _attract_reference(game, opp, lost, nodes, level, d)
            move.update(trap_witness)
            for v in trap:
                won[v] = opp
                level[v] = -1
            nodes = [v for v in nodes if level[v] != -1]
        else:
            move.update(head_witness)
            for v in nodes:
                level[v] = d
                won[v] = s
            for v in targets:
                if owners[v] == s:
                    move[v] = next(w for w in successors[v] if level[w] == d)
            nodes = []
    strategy0 = {v: move[v] for v in range(n) if won[v] == 0 and owners[v] == 0}
    strategy1 = {v: move[v] for v in range(n) if won[v] == 1 and owners[v] == 1}
    return Solution(winner=tuple(won), strategy0=strategy0, strategy1=strategy1)


def package_lines(fn) -> int:
    """The line events that ``fn()`` runs in this package's own code."""
    package = os.path.dirname(cycles.__file__)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def gen_random_reference(config: RandomConfig) -> ParityGame:
    """``generators.gen_random`` through the standard library's calls: per
    node ``randrange(2)``, ``randint`` for the color and the out-degree, and
    ``sample`` of the ``n - 1`` other nodes.  ``gen_random`` draws the same
    numbers from ``getrandbits`` directly, so the two agree on every seed."""
    rng = random.Random(config.seed)
    n = config.nodes
    owners = []
    colors = []
    successors = []
    for v in range(n):
        owners.append(rng.randrange(2))
        colors.append(rng.randint(0, config.max_color))
        degree = rng.randint(config.min_out, config.max_out)
        picks = rng.sample(range(n - 1), degree)
        successors.append(tuple(sorted(t if t < v else t + 1 for t in picks)))
    arena = Arena(successors=tuple(successors), colors=tuple(colors))
    return ParityGame(arena=arena, owners=tuple(owners))


def random_game(rng: random.Random, **kwargs) -> ParityGame:
    arena = random_arena(rng, **kwargs)
    owners = tuple(rng.randrange(2) for _ in range(arena.node_count))
    return ParityGame(arena=arena, owners=owners)


def redraw_check(arena: Arena, colorings: Sequence[Sequence[int]], k: int, rng: random.Random):
    """Referee reduced colorings of ``arena`` by ownership redraws.

    Draws ``k`` random ownerships.  For each, Zielonka's winners on every
    coloring of ``colorings`` must equal its winners on the input coloring,
    and :func:`solver.verify_solution` must accept each of those solutions,
    strategies included, on the original game.  Equivalent colorings give
    the same winning regions and strategies under every ownership, so this
    is a necessary condition for equivalence, not a proof: it samples k
    ownerships of the 2^n.  Raises AssertionError naming the first
    coloring, draw and node that fail."""
    n = arena.node_count
    for draw in range(k):
        game = ParityGame(arena, tuple(rng.randrange(2) for _ in range(n)))
        expected = solver.zielonka_solve(game).winner
        for i, colors in enumerate(colorings):
            solution = solver.zielonka_solve(game.with_colors(colors))
            differ = [v for v in range(n) if solution.winner[v] != expected[v]]
            assert not differ, f"coloring {i}, draw {draw}: node {differ[0]} changes winner"
            verdict = solver.verify_solution(game, solution)
            assert verdict, f"coloring {i}, draw {draw}: {verdict.reason}"


@st.composite
def arenas(
    draw: st.DrawFn,
    min_nodes: int = 2,
    max_nodes: int = 6,
    max_color: int = 5,
    max_degree: int = 3,
    allow_self_loops: bool = False,
) -> Arena:
    n = draw(st.integers(min_nodes, max_nodes))
    successors = []
    for v in range(n):
        population = [w for w in range(n) if allow_self_loops or w != v]
        succ = draw(
            st.lists(
                st.sampled_from(population),
                unique=True,
                min_size=1,
                max_size=min(max_degree, len(population)),
            )
        )
        successors.append(tuple(sorted(succ)))
    colors = draw(
        st.lists(st.integers(0, max_color), min_size=n, max_size=n).map(tuple)
    )
    return Arena(tuple(successors), colors)


@st.composite
def games(draw: st.DrawFn, **kwargs) -> ParityGame:
    arena = draw(arenas(**kwargs))
    owners = draw(
        st.lists(
            st.integers(0, 1),
            min_size=arena.node_count,
            max_size=arena.node_count,
        ).map(tuple)
    )
    # Names hold no '"' and no line break (categories Cc, Zl and Zp), which
    # a record cannot carry, and no surrogate (Cs), which UTF-8 cannot.
    writable = st.text(
        st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters='"')
    )
    names = draw(
        st.none()
        | st.lists(
            st.none() | writable, min_size=arena.node_count, max_size=arena.node_count
        ).map(tuple)
    )
    return ParityGame(arena=arena, owners=owners, names=names)
