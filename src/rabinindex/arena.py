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

from collections.abc import Iterable, Sequence
from functools import cached_property

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


class Record:
    """Base of the package's value classes: ``==`` and ``repr`` over the
    fields that a subclass names, in constructor order, in ``__match_args__``.

    The standard library's record decorator would generate the same
    methods, but importing it brings ``inspect``, ``ast`` and a dozen more
    modules.  A subclass writes its own ``__init__``.  It is unhashable
    unless it derives from :class:`FrozenRecord`.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class FrozenRecord(Record):
    """A :class:`Record` hashed by its field values, whose attributes cannot
    be assigned or deleted; its ``__init__`` writes them to ``__dict__``."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Arena(FrozenRecord):
    """Directed graph with a total edge relation and per-node colors.

    ``successors[v]`` is the ordered successor sequence of node ``v``;
    duplicates are rejected (parsers deduplicate before construction).
    ``colors[v]`` is the color of ``v`` and must be a natural number.
    Successor ids and colors must be ``int``s, and not ``bool``s, which the
    PGSolver writer would spell ``True`` and ``False``.
    """

    __match_args__ = ("successors", "colors")

    def __init__(self, successors: tuple[tuple[NodeId, ...], ...], colors: Coloring) -> None:
        n = len(successors)
        if n == 0:
            raise ValueError("arena must have at least one node")
        check_coloring(colors, n)
        for v, succ in enumerate(successors):
            if not succ:
                raise ValueError(f"node {v} has no successors (arena must be total)")
            for w in succ:
                if type(w) is not int:
                    raise ValueError(f"successor {w!r} of node {v} is not an integer")
                if not 0 <= w < n:
                    raise ValueError(f"successor {w} of node {v} out of range")
            if len(set(succ)) < len(succ):
                w = next(w for i, w in enumerate(succ) if w in succ[:i])
                raise ValueError(f"node {v} has duplicate successor {w}")
        self.__dict__.update(successors=successors, colors=colors)

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
    def _unchecked(cls, successors: tuple[tuple[NodeId, ...], ...], colors: Coloring) -> "Arena":
        """An arena built without the checks of ``__init__``, for callers that have
        already established every invariant it checks."""
        arena = object.__new__(cls)
        arena.__dict__.update(successors=successors, colors=colors)
        return arena

    def with_colors(self, colors: Iterable[int]) -> "Arena":
        """Same graph, different coloring; only the coloring is checked.  The
        new arena shares ``successors`` and, once computed, ``predecessors``."""
        arena = Arena._unchecked(self.successors, self.checked_colors(colors))
        if "predecessors" in self.__dict__:
            arena.__dict__["predecessors"] = self.predecessors
        return arena


def check_coloring(colors: Sequence[int], n: int) -> None:
    """Raise ValueError unless ``colors`` has ``n`` entries, all of them
    ``int``s (not ``bool``s) and none negative."""
    if len(colors) != n:
        raise ValueError(f"coloring has {len(colors)} entries for {n} nodes")
    if not {*map(type, colors)} <= {int}:
        v = next(v for v, c in enumerate(colors) if type(c) is not int)
        raise ValueError(f"color {colors[v]!r} at node {v} is not an integer")
    if min(colors) < 0:
        v = next(v for v, c in enumerate(colors) if c < 0)
        raise ValueError(f"negative color {colors[v]} at node {v}")


class ParityGame(FrozenRecord):
    """Arena plus an ownership partition.

    ``owners[v]`` is the ``int`` 0 or 1.  ``names`` optionally records
    display names, each a ``str`` or ``None``, e.g. original identifiers
    when a sparse input file was renumbered; a table of only ``None`` is
    stored as ``None``, as it reads back from a file.
    """

    __match_args__ = ("arena", "owners", "names")

    def __init__(
        self, arena: Arena, owners: tuple[int, ...], names: tuple[str | None, ...] | None = None
    ) -> None:
        n = arena.node_count
        if len(owners) != n:
            raise ValueError(f"owner vector has {len(owners)} entries for {n} nodes")
        if not {*map(type, owners)} <= {int}:
            v = next(v for v, o in enumerate(owners) if type(o) is not int)
            raise ValueError(f"owner {owners[v]!r} of node {v} is not an integer")
        if not set(owners) <= {0, 1}:
            v = next(v for v, o in enumerate(owners) if o not in (0, 1))
            raise ValueError(f"owner of node {v} must be 0 or 1, got {owners[v]}")
        if names is not None:
            if len(names) != n:
                raise ValueError("name table length does not match node count")
            if not {*map(type, names)} <= {str, type(None)}:
                for v, name in enumerate(names):
                    if name is not None and not isinstance(name, str):
                        raise ValueError(f"name {name!r} of node {v} is neither a str nor None")
            if all(name is None for name in names):
                names = None  # no name is no table
        self.__dict__.update(arena=arena, owners=owners, names=names)

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


class Solution(Record):
    """Winner labeling plus positional strategies for both players.

    ``strategy0`` maps each node of ``W0`` owned by player 0 to the chosen
    successor; ``strategy1`` likewise for player 1 on ``W1``.  Nodes in the
    opponent's region carry no strategy entry.  A strategy left out, or
    None, is a new empty dict.
    """

    __match_args__ = ("winner", "strategy0", "strategy1")

    def __init__(
        self,
        winner: tuple[int, ...],
        strategy0: dict[NodeId, NodeId] | None = None,
        strategy1: dict[NodeId, NodeId] | None = None,
    ) -> None:
        self.winner = winner
        self.strategy0 = {} if strategy0 is None else strategy0
        self.strategy1 = {} if strategy1 is None else strategy1


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
