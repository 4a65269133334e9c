"""Benchmark game generators.

Three kinds of input games:

* seeded random games described by a ``xx/yy/zz/cc`` quadruple (node count,
  out-degree bounds, maximal color),
* structured families modeled on the PGSolver benchmark suite [FL09]
  (clique, ladder, Jurdzinski's worst case, recursive ladder, model checker
  ladder, towers of Hanoi),
* the spine gadget that ties the Rabin index of an arena to the existence
  of a simple cycle through two distinguished nodes.

This package uses the min-parity winning convention while PGSolver's
generators hand out max-parity priorities, so family colorings apply the
parity-preserving flip c = M - p, with M the maximal priority rounded up
to an even number.  Structural shape (nodes, edges, owners) follows the
published family definitions.

[FL09] O. Friedmann and M. Lange, "Solving parity games in practice",
ATVA 2009.
"""

from __future__ import annotations

import random
import re
from collections.abc import Sequence
from math import ceil, log

from .arena import Arena, FrozenRecord, NodeId, ParityGame

# Compiled on first use, through the cache of ``re``.
_CONFIG = r"^\s*(\d+)\s*/\s*(\d+)\s*/\s*(\d+)\s*/\s*(\d+)\s*$"


class RandomConfig(FrozenRecord):
    """Parameters of the random game model, written ``xx/yy/zz/cc``.

    ``xx`` nodes; every node gets a fair-coin owner, a color uniform in
    {0..cc}, and between ``yy`` and ``zz`` distinct successors other than
    itself (no self-loops, no dead ends).
    """

    __match_args__ = ("nodes", "min_out", "max_out", "max_color", "seed")

    def __init__(
        self, nodes: int, min_out: int, max_out: int, max_color: int, seed: int = 0
    ) -> None:
        if nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {nodes}")
        if min_out < 1:
            raise ValueError(f"minimal out-degree must be >= 1, got {min_out}")
        if max_out < min_out:
            raise ValueError(f"out-degree bounds out of order: {min_out} > {max_out}")
        if max_out > nodes - 1:
            raise ValueError(
                f"max out-degree {max_out} impossible with {nodes} nodes and no self-loops"
            )
        if max_color < 0:
            raise ValueError(f"max color must be >= 0, got {max_color}")
        self.__dict__.update(
            nodes=nodes, min_out=min_out, max_out=max_out, max_color=max_color, seed=seed
        )

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "RandomConfig":
        match = re.match(_CONFIG, text)
        if match is None:
            raise ValueError(f"expected xx/yy/zz/cc, got {text!r}")
        xx, yy, zz, cc = (int(g) for g in match.groups())
        return cls(nodes=xx, min_out=yy, max_out=zz, max_color=cc, seed=seed)

    def label(self) -> str:
        return f"{self.nodes}/{self.min_out}/{self.max_out}/{self.max_color}"


def gen_random(config: RandomConfig) -> ParityGame:
    """Random game per ``config``; deterministic for a fixed seed.

    Node by node, it draws the owner (below 2), the color (below
    ``max_color + 1``), the out-degree (``min_out`` plus a draw below
    ``max_out - min_out + 1``) and then that many distinct successors
    among the ``n - 1`` other nodes.  Each draw takes ``getrandbits`` of a
    ``random.Random(seed)`` directly, as ``Random._randbelow`` does: it
    asks for as many bits as the width has and redraws while the result
    is not below it.  The successors follow ``Random.sample`` of
    ``range(n - 1)``: a pool of the candidates with a swap per pick when
    the population is no larger than ``sample``'s set-size threshold,
    otherwise a redraw while a pick is out of range or repeats.  So every
    seed gives the game that ``randrange``, ``randint`` and ``sample`` give,
    called in that order, without their call layers; those calls are kept
    as the referee, ``gen_random_reference`` in ``tests/helpers.py``.
    """
    getrandbits = random.Random(config.seed).getrandbits
    n = config.nodes
    m = n - 1  # sample's population range(m); picks from v on shift up past v
    bits = m.bit_length()
    colors_width = config.max_color + 1
    color_bits = colors_width.bit_length()
    low = config.min_out
    degrees = config.max_out - low + 1
    degree_bits = degrees.bit_length()
    # random.sample's choice: the pool when the population is no larger
    # than an empty list plus a set sized for the pick count.
    pooled = [
        m <= 21 + (4 ** ceil(log(3 * d, 4)) if d > 5 else 0)
        for d in range(low, low + degrees)
    ]
    owners = []
    colors = []
    successors = []
    for v in range(n):
        owner = getrandbits(2)
        while owner >= 2:
            owner = getrandbits(2)
        owners.append(owner)
        color = getrandbits(color_bits)
        while color >= colors_width:
            color = getrandbits(color_bits)
        colors.append(color)
        d = getrandbits(degree_bits)
        while d >= degrees:
            d = getrandbits(degree_bits)
        if pooled[d]:
            pool = list(range(m))
            picks = []
            for width in range(m, m - low - d, -1):
                k = width.bit_length()
                j = getrandbits(k)
                while j >= width:
                    j = getrandbits(k)
                picks.append(pool[j])
                pool[j] = pool[width - 1]
        else:
            picks = set()
            for _ in range(low + d):
                j = getrandbits(bits)
                while j >= m or j in picks:
                    j = getrandbits(bits)
                picks.add(j)
        successors.append(tuple(sorted([t + (t >= v) for t in picks])))
    arena = Arena(successors=tuple(successors), colors=tuple(colors))
    return ParityGame(arena=arena, owners=tuple(owners))


def gen_clique(n: int) -> ParityGame:
    """Complete directed graph without self-loops; colors 1..n."""
    if n < 2:
        raise ValueError(f"clique needs at least 2 nodes, got {n}")
    successors = tuple(
        tuple(w for w in range(n) if w != v) for v in range(n)
    )
    colors = tuple(v + 1 for v in range(n))
    owners = tuple(v % 2 for v in range(n))
    return ParityGame(arena=Arena(successors, colors), owners=owners)


def gen_ladder(n: int) -> ParityGame:
    """Ladder of 2n nodes; node i steps to i+1 and i+2 around the ring."""
    if n < 1:
        raise ValueError(f"ladder needs a positive layer count, got {n}")
    m = 2 * n
    successors = tuple(((v + 1) % m, (v + 2) % m) for v in range(m))
    colors = tuple(2 - v % 2 for v in range(m))
    owners = tuple(v % 2 for v in range(m))
    return ParityGame(arena=Arena(successors, colors), owners=owners)


def gen_jurdzinski(j: int, l: int) -> ParityGame:
    """Jurdzinski's layered worst case for small progress measures [Jur00].

    j layers of l repeller/attractor pairs x(i,k), y(i,k) joined by 2-cycles
    within and between layers, a horizontal ring per layer, and a two-node
    tail on top of the last layer.

    [Jur00] M. Jurdzinski, "Small progress measures for solving parity
    games", STACS 2000.
    """
    if j < 1 or l < 1:
        raise ValueError(f"jurdzinski needs positive layer counts, got {j}, {l}")

    def x(i: int, k: int) -> NodeId:
        return 2 * (i * l + k)

    def y(i: int, k: int) -> NodeId:
        return x(i, k) + 1

    tail1 = 2 * j * l
    tail2 = tail1 + 1
    n = tail2 + 1
    succ: list[set[NodeId]] = [set() for _ in range(n)]
    colors = [0] * n
    names = [""] * n
    for i in range(j):
        for k in range(l):
            colors[x(i, k)] = 2 * i + 1
            colors[y(i, k)] = 2 * i + 2
            names[x(i, k)] = f"x({i},{k})"
            names[y(i, k)] = f"y({i},{k})"
            succ[x(i, k)].add(y(i, k))
            succ[y(i, k)].add(x(i, k))
            succ[y(i, k)].add(x(i, (k + 1) % l))
            if i + 1 < j:
                succ[y(i, k)].add(x(i + 1, k))
                succ[x(i + 1, k)].add(y(i, k))
    colors[tail1] = 2 * j + 1
    colors[tail2] = 2 * j + 2
    names[tail1] = "t1"
    names[tail2] = "t2"
    succ[tail1].update((tail2, y(j - 1, 0)))
    succ[y(j - 1, 0)].add(tail1)
    succ[tail2].add(tail1)
    succ[tail1].discard(tail1)

    successors = tuple(tuple(sorted(s)) for s in succ)
    owners = tuple(1 - colors[v] % 2 for v in range(n))
    arena = Arena(successors, tuple(colors))
    return ParityGame(arena=arena, owners=owners, names=tuple(names))


def gen_recursive_ladder(n: int) -> ParityGame:
    """Spine of n+1 nodes with a cap and 2n high-colored pendant nodes.

    The spine carries colors 1..n+1 with consecutive 2-cycles, the cap node
    (color n+2) hangs off the spine top, and the pendant nodes carry the
    colors n+3..3n+3 except the first odd value above n+3, each attached by
    a 2-cycle to a spine node.
    """
    if n < 1:
        raise ValueError(f"recursive ladder needs a positive size, got {n}")
    spine = list(range(n + 1))  # node i has color i + 1
    cap = n + 1
    skip = n + 4 if (n + 4) % 2 == 1 else n + 5
    high_colors = [c for c in range(n + 3, 3 * n + 4) if c != skip]
    total = (n + 2) + len(high_colors)
    succ: list[set[NodeId]] = [set() for _ in range(total)]
    colors = [0] * total
    names = [""] * total
    for i in spine:
        colors[i] = i + 1
        names[i] = f"s{i + 1}"
        if i + 1 <= n:
            succ[i].add(i + 1)
            succ[i + 1].add(i)
    colors[cap] = n + 2
    names[cap] = "t"
    succ[cap].add(spine[-1])
    succ[spine[-1]].add(cap)
    for q, color in enumerate(high_colors):
        v = n + 2 + q
        colors[v] = color
        names[v] = f"h{color}"
        anchor = spine[(color - (n + 3)) % n]
        succ[v].add(anchor)
        succ[anchor].add(v)

    successors = tuple(tuple(sorted(s)) for s in succ)
    owners = tuple(colors[v] % 2 for v in range(total))
    arena = Arena(successors, tuple(colors))
    return ParityGame(arena=arena, owners=owners, names=tuple(names))


def gen_model_checker_ladder(n: int) -> ParityGame:
    """A single even ring fed by an acyclic odd chain.

    Ring nodes e_i (color 2i+2) cycle e_0 -> e_1 -> ... -> e_0; chain nodes
    o_i (color 2i+1) march o_0 -> o_1 -> ... -> e_0, so the ring is the
    only cycle in the game.
    """
    if n < 1:
        raise ValueError(f"model checker ladder needs a positive size, got {n}")
    total = 2 * n
    succ: list[tuple[NodeId, ...]] = []
    colors = []
    names = []
    for i in range(n):  # ring nodes occupy ids 0..n-1
        succ.append(((i + 1) % n,))
        colors.append(2 * i + 2)
        names.append(f"e{i}")
    for i in range(n):  # chain nodes occupy ids n..2n-1
        succ.append((n + i + 1,) if i + 1 < n else (0,))
        colors.append(2 * i + 1)
        names.append(f"o{i}")
    owners = tuple(0 if v < n else 1 for v in range(total))
    arena = Arena(tuple(succ), tuple(colors))
    return ParityGame(arena=arena, owners=owners, names=tuple(names))


def gen_tower_of_hanoi(n: int) -> ParityGame:
    """Towers of Hanoi move graph on 3^n disc configurations.

    A configuration assigns each of n discs to one of three pegs; moves
    relocate the top disc of a peg onto a peg with no smaller disc.  The
    configuration with all discs on peg 2 is colored 2, all others 1.
    """
    if n < 1:
        raise ValueError(f"tower of hanoi needs at least one disc, got {n}")
    total = 3**n
    powers = [3**d for d in range(n)]

    def pegs_of(state: int) -> list[int]:
        pegs = []
        for _ in range(n):
            pegs.append(state % 3)
            state //= 3
        return pegs

    succ = []
    for state in range(total):
        pegs = pegs_of(state)
        moves = []
        for disc in range(n):
            source = pegs[disc]
            if any(pegs[d] == source for d in range(disc)):
                continue  # a smaller disc sits on top
            for target in range(3):
                if target == source:
                    continue
                if any(pegs[d] == target for d in range(disc)):
                    continue
                moves.append(state + (target - source) * powers[disc])
        succ.append(tuple(sorted(moves)))
    goal = total - 1  # all discs on peg 2
    colors = tuple(2 if state == goal else 1 for state in range(total))
    owners = tuple(0 for _ in range(total))
    names = tuple("".join(str(p) for p in pegs_of(state)) for state in range(total))
    arena = Arena(tuple(succ), colors)
    return ParityGame(arena=arena, owners=owners, names=names)


_FAMILIES = {  # name: (builder, number of integer parameters)
    "clique": (gen_clique, 1),
    "ladder": (gen_ladder, 1),
    "jurdzinski": (gen_jurdzinski, 2),
    "recursive_ladder": (gen_recursive_ladder, 1),
    "model_checker_ladder": (gen_model_checker_ladder, 1),
    "tower_of_hanoi": (gen_tower_of_hanoi, 1),
}
FAMILY_NAMES = tuple(_FAMILIES)


def gen_family(name: str, params: tuple[int, ...]) -> ParityGame:
    """Dispatch to a named family; ``params`` are its integer parameters.
    Raises ValueError for an unknown name, a wrong parameter count, or
    parameters the family's builder refuses."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    build, arity = _FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


def parse_game_spec(
    tokens: Sequence[str], seed: int = 0
) -> RandomConfig | tuple[str, tuple[int, ...]]:
    """Read a game named as ``kind params...``: ``random xx/yy/zz/cc`` gives
    its :class:`RandomConfig` with ``seed``, checked whole, and a family
    its name and integer parameters, which :func:`gen_family` checks as it
    builds the game.  Raises ValueError naming the mistake."""
    if not tokens:
        raise ValueError("no game named")
    kind, *rest = tokens
    if kind == "random":
        if len(rest) != 1:
            raise ValueError("random takes one xx/yy/zz/cc argument")
        return RandomConfig.parse(rest[0], seed=seed)
    try:
        params = tuple(map(int, rest))
    except ValueError:
        raise ValueError(f"bad parameter in {' '.join(tokens)!r}") from None
    return kind, params


def gen_hardness_gadget(
    base: Arena | Sequence[Sequence[NodeId]], s: NodeId, t: NodeId, k: int
) -> Arena:
    """Spine gadget relating Rabin index k to simple s-t cycles in ``base``.

    Recolors the base graph (c(s) = k-1, c(t) = k, every interior node, that
    is every base node other than s and t, k+1) and attaches a spine of k+1
    fresh nodes p_0..p_k with c(p_i) = k-i, joined by consecutive 2-cycles;
    p_0 is 2-cycled with t and p_2 with s.  The base may be a bare successor
    listing; nodes without successors get a self-loop so the result is
    total.

    The Rabin index of the gadget is at least k iff the base has a simple
    cycle through both s and t (then it is k or k+1; otherwise at most k-1),
    so deciding "index >= k" is NP-hard for every fixed k >= 2 by reduction
    from the simple s-t cycle problem.  Both bounds below are proved for
    every k >= 2.

    Simple cycles of the gadget.  The spine edges together with t-p_0 and
    s-p_2 form a tree of 2-cycles, entered from the base only at s and t.
    A simple cycle is therefore one of: a base cycle (self-loops added for
    totality included); a 2-cycle {p_i, p_i+1}, {t, p_0} or {s, p_2}; or a
    simple base path between s and t closed through the spine as
    t p_0 p_1 p_2 s or s p_2 p_1 p_0 t.

    Upper bound.  Without an s-t cycle in the base, the coloring c' with
    c'(t) = k-2, c'(s) = k-1, c'(v) = k-1 for interior v, c'(p_0) =
    c'(p_1) = k-1 and c'(p_i) = k-i for i >= 2 has max k-1 and is
    equivalent to c.  Minimal colors of each cycle class under c and c':

    * base cycle through neither s nor t: k+1 and k-1;
    * base cycle through t, not s: k and k-2;
    * base cycle through s, not t: k-1 and k-1;
    * base cycle through both: k-1 and k-2 -- the only disagreement, and
      there is no such cycle;
    * {p_i, p_i+1}: k-i-1 under both, for every i;
    * {t, p_0}: k and k-2;  {s, p_2}: k-2 under both;
    * base path closed through p_0 p_1 p_2: k-2 under both (p_2, and t
      under c').

    Lower bound.  Let C = P Q be a simple base cycle through s and t, with
    P the path s -> t and Q the path t -> s.  Under c, C has min k-1, while
    W_P = P t p_0 p_1 p_2 s and W_Q = Q s p_2 p_1 p_0 t have min k-2 (at
    p_2), {t, p_0} has min k and {p_i, p_i+1} has min k-i-1.  Suppose c'
    is equivalent with max c' <= k-1; write x = min c'(p_0, p_1, p_2).

    1. By symmetry let min c'(C) be attained on P.  Then min c'(W_P) =
       min(min c'(P), x) has parity k while min c'(P) = min c'(C) has
       parity k-1, so x < min c'(C) and x has parity k.
    2. {p_0, p_1} has min of parity k-1, so x = c'(p_2) < c'(p_0), c'(p_1).
    3. {p_i, p_i+1} for i >= 2 has min of parity k-i-1; starting from
       c'(p_2) of parity k, induction gives c'(p_2) > c'(p_3) > ... >
       c'(p_k) >= 0, so x >= k-2; with parity k and x <= k-1, x = k-2.
    4. Then min c'(C) = k-1 and c'(s) = c'(t) = k-1, and by step 2
       c'(p_0) = c'(p_1) = k-1.  So {t, p_0} has min k-1 under c' but k
       under c: a contradiction.  Hence every equivalent coloring has max
       >= k, and c itself has max <= k+1.
    """
    if k < 2:
        raise ValueError(f"gadget needs k >= 2, got {k}")
    base_succ = base.successors if isinstance(base, Arena) else tuple(base)
    n = len(base_succ)
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"distinguished nodes {s}, {t} not in the base arena")
    if s == t:
        raise ValueError("distinguished nodes must differ")

    total = n + k + 1
    succ: list[set[NodeId]] = [set(base_succ[v]) for v in range(n)]
    succ.extend(set() for _ in range(k + 1))
    for v in range(n):
        if not succ[v]:
            succ[v].add(v)
    colors = [k + 1] * total
    colors[s] = k - 1
    colors[t] = k
    spine = [n + idx for idx in range(k + 1)]  # spine[idx] has color k - idx
    for idx, v in enumerate(spine):
        colors[v] = k - idx
    for first, second in zip(spine, spine[1:]):
        succ[first].add(second)
        succ[second].add(first)
    succ[t].add(spine[0])
    succ[spine[0]].add(t)
    succ[s].add(spine[2])
    succ[spine[2]].add(s)

    return Arena(tuple(tuple(sorted(x)) for x in succ), tuple(colors))
