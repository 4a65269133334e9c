"""Colored arenas and parity games.

An arena is a finite directed graph with a total edge relation (every node
has at least one successor) together with a coloring that assigns each node
a natural number.  A parity game additionally partitions the nodes between
player 0 and player 1.  Plays are infinite; under the min-parity convention
used throughout this package, player 0 wins a play iff the minimal color
occurring infinitely often is even.

Node identities are dense integers in ``[0, n)`` and stay fixed under all
color transformations: reductions return fresh colorings rather than
mutating shared state, so arenas and games are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

NodeId = int
Coloring = tuple[int, ...]

__all__ = [
    "NodeId",
    "Coloring",
    "Arena",
    "ParityGame",
    "Solution",
    "cycle_color",
    "index",
]


@dataclass(frozen=True)
class Arena:
    """Directed graph with a total edge relation and per-node colors.

    ``successors[v]`` is the ordered successor sequence of node ``v``;
    duplicates are rejected (parsers deduplicate before construction).
    ``colors[v]`` is the color of ``v`` and must be a natural number.
    Successor ids and colors must be ``int``s.
    """

    successors: tuple[tuple[NodeId, ...], ...]
    colors: Coloring

    def __post_init__(self) -> None:
        n = len(self.successors)
        if n == 0:
            raise ValueError("arena must have at least one node")
        check_coloring(self.colors, n)
        for v, succ in enumerate(self.successors):
            if not succ:
                raise ValueError(f"node {v} has no successors (arena must be total)")
            for w in succ:
                if not isinstance(w, int):
                    raise ValueError(f"successor {w!r} of node {v} is not an integer")
                if not 0 <= w < n:
                    raise ValueError(f"successor {w} of node {v} out of range")
            if len(set(succ)) < len(succ):
                w = next(w for i, w in enumerate(succ) if w in succ[:i])
                raise ValueError(f"node {v} has duplicate successor {w}")

    @classmethod
    def from_lists(
        cls, successors: Iterable[Iterable[NodeId]], colors: Iterable[int]
    ) -> "Arena":
        return cls(
            tuple(tuple(succ) for succ in successors),
            tuple(colors),
        )

    @property
    def node_count(self) -> int:
        return len(self.successors)

    @cached_property
    def predecessors(self) -> tuple[tuple[NodeId, ...], ...]:
        """Predecessors of each node in ascending order: ``v`` runs upward."""
        preds: list[list[NodeId]] = [[] for _ in range(self.node_count)]
        for v, succ in enumerate(self.successors):
            for w in succ:
                preds[w].append(v)
        return tuple(map(tuple, preds))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.successors[u]

    def checked_colors(self, colors: Iterable[int] | None) -> Coloring:
        """``colors`` as a tuple checked against this arena (length, ints,
        no negatives), or the arena's own coloring when None."""
        if colors is None:
            return self.colors
        colors = tuple(colors)
        check_coloring(colors, self.node_count)
        return colors

    @classmethod
    def _unchecked(
        cls, successors: tuple[tuple[NodeId, ...], ...], colors: Coloring, **indexes
    ) -> "Arena":
        """An arena built without ``__post_init__``, for callers that have
        already established every invariant it checks; ``indexes`` presets
        cached graph indexes."""
        arena = object.__new__(cls)
        arena.__dict__.update(indexes, successors=successors, colors=colors)
        return arena

    def with_colors(self, colors: Iterable[int]) -> "Arena":
        """Same graph, different coloring; only the coloring is checked.  The
        new arena shares ``successors`` and, once computed, ``predecessors``."""
        return Arena._unchecked(
            self.successors,
            self.checked_colors(colors),
            **{k: v for k, v in self.__dict__.items() if k in _GRAPH_INDEXES},
        )


# Cached properties of an Arena that depend on the graph alone; with_colors
# hands these on and lets any other cached property be recomputed.
_GRAPH_INDEXES = frozenset({"predecessors"})


def check_coloring(colors: Sequence[int], n: int) -> None:
    """Raise ValueError unless ``colors`` has ``n`` entries, all of them
    ``int``s and none negative."""
    if len(colors) != n:
        raise ValueError(f"coloring has {len(colors)} entries for {n} nodes")
    if not all(map(int.__instancecheck__, colors)):  # isinstance(c, int), at C speed
        v = next(v for v, c in enumerate(colors) if not isinstance(c, int))
        raise ValueError(f"color {colors[v]!r} at node {v} is not an integer")
    if min(colors) < 0:
        v = next(v for v, c in enumerate(colors) if c < 0)
        raise ValueError(f"negative color {colors[v]} at node {v}")


@dataclass(frozen=True)
class ParityGame:
    """Arena plus an ownership partition.

    ``owners[v]`` is 0 or 1.  ``names`` optionally records display names,
    e.g. original identifiers when a sparse input file was renumbered; a
    table of only ``None`` is stored as ``None``, as it reads back from a file.
    """

    arena: Arena
    owners: tuple[int, ...]
    names: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        n = self.arena.node_count
        if len(self.owners) != n:
            raise ValueError(f"owner vector has {len(self.owners)} entries for {n} nodes")
        if not set(self.owners) <= {0, 1}:
            v = next(v for v, o in enumerate(self.owners) if o not in (0, 1))
            raise ValueError(f"owner of node {v} must be 0 or 1, got {self.owners[v]}")
        if self.names is not None:
            if len(self.names) != n:
                raise ValueError("name table length does not match node count")
            if all(name is None for name in self.names):
                object.__setattr__(self, "names", None)  # no name is no table

    @property
    def node_count(self) -> int:
        return self.arena.node_count

    def with_colors(self, colors: Iterable[int]) -> "ParityGame":
        """Same game, different coloring; only the coloring is checked (see
        :meth:`Arena.with_colors`).  The owners and names were checked when
        this game was built, and the new game shares them."""
        game = object.__new__(ParityGame)
        game.__dict__.update(
            arena=self.arena.with_colors(colors), owners=self.owners, names=self.names
        )
        return game


@dataclass
class Solution:
    """Winner labeling plus positional strategies for both players.

    ``strategy0`` maps each node of ``W0`` owned by player 0 to the chosen
    successor; ``strategy1`` likewise for player 1 on ``W1``.  Nodes in the
    opponent's region carry no strategy entry.
    """

    winner: tuple[int, ...]
    strategy0: dict[NodeId, NodeId] = field(default_factory=dict)
    strategy1: dict[NodeId, NodeId] = field(default_factory=dict)


def cycle_color(arena: Arena, nodes: Sequence[NodeId]) -> int:
    """Minimal color on a cycle, given as the sequence of its nodes.

    The sequence must traverse edges of the arena, including the closing
    edge from the last node back to the first; anything else is rejected.
    """
    if not nodes:
        raise ValueError("empty node sequence is not a cycle")
    for a, b in zip(nodes, list(nodes[1:]) + [nodes[0]]):
        if not arena.has_edge(a, b):
            raise ValueError(f"({a}, {b}) is not an edge; input is not a cycle")
    return min(arena.colors[v] for v in nodes)


def index(coloring: Sequence[int]) -> int:
    """Index of a coloring: the maximal color in use."""
    if not coloring:
        raise ValueError("coloring is empty")
    return max(coloring)
