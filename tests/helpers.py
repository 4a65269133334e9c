"""Shared builders for randomized and property-based tests."""

from __future__ import annotations

import random
from math import inf
from typing import NamedTuple

from hypothesis import strategies as st

from rabinindex.arena import Arena, ParityGame
from rabinindex import cycles, reduction, solver
from rabinindex.cycles import closed_walk_minima, tarjan_scc
from rabinindex.reduction import OracleStats, _PassState


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
    marked = closed_walk_minima(arena.successors, c)
    return any(on_walk and color == top for on_walk, color in zip(marked, c))


def nested_path(n: int) -> Arena:
    """Two-way path colored 0, 2, 4, ...: removing either end leaves one
    shorter path, so its components nest one level per node."""
    succ = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
    return Arena.from_lists(succ, [2 * v for v in range(n)])


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
    """Count the decompositions run through ``cycles.tarjan_scc`` or
    ``reduction.tarjan_scc``: one entry, the node count, per call."""
    return count_tarjan_work(monkeypatch)[0]


def count_tarjan_work(monkeypatch) -> tuple[list[int], list[int], list]:
    """Like :func:`count_tarjan_calls`, and also the edges handed to each
    call (the summed length of the successor lists it gets, mask or not)
    and each call's mask, None for the whole graph."""
    calls: list[int] = []
    edges: list[int] = []
    masks: list = []
    real = cycles.tarjan_scc

    def counting(successors, allowed=None):
        calls.append(len(successors))
        edges.append(sum(map(len, successors)))
        masks.append(allowed)
        return real(successors, allowed)

    for module in (cycles, reduction):
        monkeypatch.setattr(module, "tarjan_scc", counting)
    return calls, edges, masks


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


def get_anchor(arena: Arena, coloring, v: int, budget_limit=None) -> int:
    """Anchor of ``v`` from a fresh exact pass state over ``coloring`` (or
    the arena's own): the largest opposite-parity color below ``c(v)``
    realized as the color of a simple cycle through ``v``, or -1."""
    colors = list(arena.colors if coloring is None else coloring)
    return _PassState(arena, colors, budget_limit, OracleStats()).anchor(v)


class Attraction(NamedTuple):
    region: frozenset[int]
    witness: dict[int, int]


def attract(game: ParityGame, player: int, target: set[int]) -> Attraction:
    """The solver's attractor of ``target`` for ``player`` over the whole
    game, and the successor each attracted player node was pulled through."""
    n = game.node_count
    region, witness = solver._attract(game, player, sorted(target), range(n), [0] * n, 0)
    return Attraction(frozenset(region), witness)


def random_game(rng: random.Random, **kwargs) -> ParityGame:
    arena = random_arena(rng, **kwargs)
    owners = tuple(rng.randrange(2) for _ in range(arena.node_count))
    return ParityGame(arena=arena, owners=owners)


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
