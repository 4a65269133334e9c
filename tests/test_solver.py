"""Attractors, the Zielonka solver, and independent solution checking."""

from __future__ import annotations

import hashlib
import random
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from rabinindex import RandomConfig, cycles, gen_family, gen_random, rabin, solver, static_compress
from rabinindex.arena import Arena, ParityGame, Solution, cycle_color
from rabinindex.oracles import brute_force_winners
from rabinindex.solver import verify_solution, zielonka_solve

from helpers import (
    attract,
    count_tarjan_calls,
    count_tarjan_work,
    games,
    nested_path,
    package_lines,
    parity_path,
    random_game,
    walk_verdict,
    walk_verdict_reference,
    zielonka_reference,
)


def test_attract_whole_arena(fig1_game):
    result = attract(fig1_game, 0, set(range(5)))
    assert result.region == frozenset(range(5))
    assert result.witness == {}


def test_attract_fig1_player1(fig1_game):
    # v3 is forced into {v4}; v0 (owned by player 1) can choose v4.
    result = attract(fig1_game, 1, {4})
    assert result.region == frozenset({0, 3, 4})
    assert result.witness[3] == 4
    assert result.witness[0] == 4
    assert 4 not in result.witness


def test_attract_empty_target(fig1_game):
    result = attract(fig1_game, 0, set())
    assert result.region == frozenset()
    assert result.witness == {}


def test_attract_properties_random():
    rng = random.Random(20260815)
    for _ in range(60):
        game = random_game(rng, max_nodes=7)
        arena = game.arena
        n = arena.node_count
        target = set(rng.sample(range(n), rng.randint(1, n)))
        for player in (0, 1):
            result = attract(game, player, target)
            region = result.region
            assert target <= region
            for v, w in result.witness.items():
                assert game.owners[v] == player
                assert v not in target
                assert arena.has_edge(v, w)
                assert w in region
            outside = set(range(n)) - region
            for v in outside:
                succ = set(arena.successors[v])
                if game.owners[v] == player:
                    # An attracted-player node outside must have no way in.
                    assert not (succ & region)
                else:
                    # An opponent node outside must be able to stay out.
                    assert succ & outside


def test_zielonka_fig1(fig1_game):
    solution = zielonka_solve(fig1_game)
    assert solution.winner == (1, 0, 0, 1, 1)
    assert solution.strategy0 == {1: 2}
    assert solution.strategy1 == {0: 4, 3: 4}
    assert verify_solution(fig1_game, solution)


def test_zielonka_single_node_even():
    game = ParityGame(Arena(((0,),), (0,)), (0,))
    solution = zielonka_solve(game)
    assert solution.winner == (0,)
    assert solution.strategy0 == {0: 0}
    assert verify_solution(game, solution)

    flipped = ParityGame(Arena(((0,),), (0,)), (1,))
    solution = zielonka_solve(flipped)
    assert solution.winner == (0,)
    assert solution.strategy0 == {}
    assert verify_solution(flipped, solution)


def test_zielonka_matches_brute_force():
    rng = random.Random(77)
    for _ in range(150):
        game = random_game(rng, max_nodes=6, max_color=5)
        solution = zielonka_solve(game)
        assert solution.winner == brute_force_winners(game)
        result = verify_solution(game, solution)
        assert result, result.reason


# The benchmark's seven PGSolver families, then 30 seeded random games of
# 50 to 2 000 nodes, out-degree 1 to 5 and up to 2n colors.
PINNED_FAMILIES = (
    ("clique", (100,)),
    ("ladder", (300,)),
    ("jurdzinski", (4, 6)),
    ("jurdzinski", (5, 10)),
    ("recursive_ladder", (30,)),
    ("model_checker_ladder", (300,)),
    ("tower_of_hanoi", (5,)),
)


def _pinned_random_games():
    for i in range(30):
        n = 50 + 1950 * i // 29
        lo = 1 + i % 3
        spec = f"{n}/{lo}/{lo + i % 3}/{(n // 10, n, 2 * n)[i % 3]}"
        yield gen_random(RandomConfig.parse(spec, seed=100 + i))


# sha256 over (winner, strategy0, strategy1) of every game above, in order.
PINNED_DIGEST = "782ee0d7220c82b200028c7850e91a1d385fa985646defa42cee7e18d2f78ad1"


def test_zielonka_output_is_pinned():
    families = [gen_family(name, params) for name, params in PINNED_FAMILIES]
    digest = hashlib.sha256()
    for game in families + list(_pinned_random_games()):
        solution = zielonka_solve(game)
        digest.update(
            repr(
                (
                    solution.winner,
                    sorted(solution.strategy0.items()),
                    sorted(solution.strategy1.items()),
                )
            ).encode()
        )
    assert digest.hexdigest() == PINNED_DIGEST


def test_zielonka_matches_the_list_based_reference():
    # The subgames-as-marks loop makes the same attractor calls, with the
    # same targets in the same order, as the loop over node lists.
    rng = random.Random(2510)
    for _ in range(1000):
        game = random_game(
            rng,
            max_nodes=40,
            max_color=rng.randint(1, 40),
            max_degree=rng.randint(1, 4),
            allow_self_loops=True,
        )
        assert zielonka_solve(game) == zielonka_reference(game)
    for name, params in PINNED_FAMILIES:
        game = gen_family(name, params)
        assert zielonka_solve(game) == zielonka_reference(game)


def test_zielonka_level_costs_its_head():
    # Player 1 owns every node of an all-even nested path: each level's
    # head is one end of the path, so four times the nodes should run about
    # four times the lines (20 458 and 81 958).  A level that passed over
    # its whole subgame made it about fifteen times.
    lines = []
    for n in (250, 1000):
        game = ParityGame(arena=nested_path(n), owners=(1,) * n)
        lines.append(package_lines(lambda game=game: zielonka_solve(game)))
    assert lines[1] <= 6 * lines[0]


@given(games(max_nodes=7, max_color=6))
@settings(max_examples=60, deadline=None)
def test_zielonka_solutions_verify(game):
    result = verify_solution(game, zielonka_solve(game))
    assert result, result.reason


def test_verify_rejects_bad_winner_shape(fig1_game):
    good = zielonka_solve(fig1_game)
    short = Solution(winner=(1, 0), strategy0=good.strategy0, strategy1=good.strategy1)
    assert "entries" in verify_solution(fig1_game, short).reason
    junk = Solution(
        winner=(1, 0, 2, 1, 1), strategy0=good.strategy0, strategy1=good.strategy1
    )
    assert "other than 0 and 1" in verify_solution(fig1_game, junk).reason
    # An unhashable entry is reported the same way, not raised.
    listed = Solution(
        winner=(1, 0, [0], 1, 1), strategy0=good.strategy0, strategy1=good.strategy1
    )
    assert "other than 0 and 1" in verify_solution(fig1_game, listed).reason


def test_verify_rejects_float_winner_entries():
    # 0.0 and 1.0 equal 0 and 1, so only their type tells them apart.
    for owner in (0, 1):
        game = ParityGame(Arena(((0,),), (0,)), (owner,))
        strategies = [{}, {}]
        strategies[owner] = {0: 0}
        result = verify_solution(game, Solution((float(owner),), *strategies))
        assert not result
        assert result.reason == "winner labeling contains values other than 0 and 1"


def test_verify_rejects_swapped_winners(fig1_game):
    good = zielonka_solve(fig1_game)
    swapped = Solution(
        winner=tuple(1 - w for w in good.winner),
        strategy0=good.strategy0,
        strategy1=good.strategy1,
    )
    assert not verify_solution(fig1_game, swapped)


def test_verify_rejects_missing_strategy_entry(fig1_game):
    good = zielonka_solve(fig1_game)
    gutted = Solution(winner=good.winner, strategy0={}, strategy1=good.strategy1)
    result = verify_solution(fig1_game, gutted)
    assert result.reason == "player 0 has no strategy move at node 1"
    assert result.witness == (1,)


def test_verify_rejects_a_strategy_key_that_is_no_node(fig1_game):
    good = zielonka_solve(fig1_game)
    named = Solution(good.winner, {**good.strategy0, "x": 1}, good.strategy1)
    result = verify_solution(fig1_game, named)
    assert not result
    assert result.reason == "strategy for player 0 names unknown node 'x'"


def test_verify_rejects_strategy_outside_region(fig1_game):
    good = zielonka_solve(fig1_game)
    # v2 is player 1's node but sits in player 0's region.
    bloated = Solution(
        winner=good.winner,
        strategy0=good.strategy0,
        strategy1={**good.strategy1, 2: 1},
    )
    result = verify_solution(fig1_game, bloated)
    assert "outside the claimed region" in result.reason
    assert result.witness == (2,)


def test_verify_rejects_wrong_owner(fig1_game):
    good = zielonka_solve(fig1_game)
    # v1 is owned by player 0, so player 1 may not move there.
    confused = Solution(
        winner=good.winner,
        strategy0=good.strategy0,
        strategy1={**good.strategy1, 1: 2},
    )
    result = verify_solution(fig1_game, confused)
    assert "owned by player 0" in result.reason


def test_verify_rejects_non_edge_move(fig1_game):
    good = zielonka_solve(fig1_game)
    teleport = Solution(winner=good.winner, strategy0={1: 4}, strategy1=good.strategy1)
    result = verify_solution(fig1_game, teleport)
    assert "not an edge" in result.reason
    assert result.witness == (1, 4)


def test_verify_rejects_region_escape(fig1_game):
    good = zielonka_solve(fig1_game)
    # v1 -> v0 is a real edge but leaves player 0's claimed region.
    leaky = Solution(winner=good.winner, strategy0={1: 0}, strategy1=good.strategy1)
    result = verify_solution(fig1_game, leaky)
    assert "leaves player 0's region" in result.reason
    assert result.witness == (1, 0)


def test_verify_rejects_wrong_parity_claim():
    game = ParityGame(Arena(((0,),), (1,)), (0,))
    bogus = Solution(winner=(0,), strategy0={0: 0}, strategy1={})
    result = verify_solution(game, bogus)
    assert "cycle of color 1" in result.reason
    assert result.witness == (0,)


@given(games(max_nodes=7, max_color=6))
@settings(max_examples=80, deadline=None)
def test_verify_rejects_solution_of_parity_flipped_game(game):
    # Shifting every color by one flips the parity of every cycle, so each
    # claimed region of the flipped game's solution holds only cycles of
    # the wrong parity for the original game.
    flipped = game.with_colors([c + 1 for c in game.arena.colors])
    solution = zielonka_solve(flipped)
    assert verify_solution(flipped, solution)
    result = verify_solution(game, solution)
    match = re.fullmatch(r"player (\d) region admits a cycle of color (\d+)", result.reason)
    assert not result and match, result.reason
    s, d = int(match[1]), int(match[2])
    assert cycle_color(game.arena, result.witness) == d
    assert d % 2 != s
    assert all(solution.winner[v] == s for v in result.witness)


def _tampered_solutions(rng: random.Random):
    """About 200 seeded random games of at most 40 nodes, each with its
    Zielonka solution and four tamperings of it: one winner flipped, one
    strategy move redirected (to a successor or any node), one strategy
    entry dropped, and every color raised by one."""
    for _ in range(200):
        game = random_game(
            rng, min_nodes=2, max_nodes=40, max_color=8, max_degree=3, allow_self_loops=True
        )
        n = game.arena.node_count
        good = zielonka_solve(game)
        yield game, good
        winner = list(good.winner)
        winner[rng.randrange(n)] ^= 1
        yield game, Solution(tuple(winner), good.strategy0, good.strategy1)
        entries = [(s, v) for s in (0, 1) for v in sorted((good.strategy0, good.strategy1)[s])]
        if entries:
            s, v = rng.choice(entries)
            redirected = [dict(good.strategy0), dict(good.strategy1)]
            redirected[s][v] = rng.choice(game.arena.successors[v] + (rng.randrange(n),))
            yield game, Solution(good.winner, *redirected)
            s, v = rng.choice(entries)
            dropped = [dict(good.strategy0), dict(good.strategy1)]
            del dropped[s][v]
            yield game, Solution(good.winner, *dropped)
        yield game.with_colors([c + 1 for c in game.arena.colors]), good


# sha256 over (ok, reason, witness) of every verdict above, in order.
VERDICT_DIGEST = "9f5ffc6f8fbb7ba42517222300d43a481ecdfd5065b08fc281f4786c3eb3c840"


def test_verify_verdicts_are_pinned():
    digest = hashlib.sha256()
    reasons = set()
    for game, solution in _tampered_solutions(random.Random(2024)):
        result = verify_solution(game, solution)
        digest.update(repr((result.ok, result.reason, result.witness)).encode())
        reasons.add(re.sub(r"\d+", "#", result.reason))
    # Acceptance and five kinds of rejection are among them.
    assert len(reasons) >= 6, reasons
    assert digest.hexdigest() == VERDICT_DIGEST


def test_verify_skips_the_walk_without_wrong_parity_colors(monkeypatch):
    # Player 1 owns every node of an all-even nested path, so player 0
    # wins everywhere without a strategy entry; no region holds a color of
    # the wrong parity, so no closed-walk level is computed.
    arena = nested_path(1100)
    game = ParityGame(arena=arena, owners=(1,) * arena.node_count)
    calls = count_tarjan_calls(monkeypatch)
    assert verify_solution(game, Solution((0,) * arena.node_count))
    assert calls == []


def test_verify_walks_both_regions_at_once(monkeypatch):
    # Two 2-cycles, each won by the player whose parity its minimal color
    # has, and each holding one color of the other parity.
    game = ParityGame(Arena(((1,), (0,), (3,), (2,)), (1, 2, 2, 3)), (0, 0, 1, 1))
    calls = []
    real = solver.nesting_tree

    def counting(links, colors):
        calls.append(len(links))
        return real(links, colors)

    monkeypatch.setattr(solver, "nesting_tree", counting)
    solution = Solution((1, 1, 0, 0))
    assert verify_solution(game, solution)
    assert calls == [4]


def test_verify_decomposes_once_per_level_through_the_traced_name(monkeypatch):
    # perfbench's --trace 1 counts verify's SCC work by rebinding
    # cycles.tarjan_scc and summing each mask.  This benchmark game's
    # strategy graph nests two parity runs deep: the peel runs over the
    # whole graph and then masked to the 127 nodes at or above their
    # components' second parity run; no component it finds holds two runs,
    # so the divide and conquer has nothing to do.
    game = gen_random(RandomConfig.parse("400/3/5/400", seed=1006))
    solution = zielonka_solve(game)
    calls, _, masks = count_tarjan_work(monkeypatch)
    assert verify_solution(game, solution)
    assert calls == [400, 400]
    assert masks[0] is None
    assert (len(masks[1]), sum(masks[1])) == (400, 127)


def test_verify_walks_equal_the_peel_on_benchmark_games(monkeypatch):
    # Every strategy graph verify walks for the benchmark's seed-1
    # random-dense and random-sparse games, on the colorings it verifies
    # and on each raised by one, which it rejects.
    walks = []
    real = solver.nesting_tree

    def counting(links, colors):
        walks.append(len(links))
        return real(links, colors)

    monkeypatch.setattr(solver, "nesting_tree", counting)
    rejected = 0
    for config, count, alpha in (("100/1/20/100", 24, True), ("400/3/5/400", 32, False)):
        for i in range(count):
            game = gen_random(RandomConfig.parse(config, seed=1000 + i))
            variants = [game, game.with_colors(static_compress(game.arena.colors))]
            if alpha:
                variants.append(game.with_colors(rabin(game.arena, mode="alpha")[0]))
            for variant in variants:
                solution = zielonka_solve(variant)
                assert walk_verdict(variant, solution) is None
                assert walk_verdict_reference(variant, solution) is None
                raised = variant.with_colors([c + 1 for c in variant.arena.colors])
                verdict = walk_verdict(raised, solution)
                assert verdict == walk_verdict_reference(raised, solution)
                rejected += verdict is not None
    assert len(walks) >= 200
    assert rejected >= 100


def test_verify_walks_no_region_without_wrong_parity_colors(monkeypatch):
    # An all-even nested path won by player 0 beside a 2-cycle colored
    # (1, 2) won by player 1: only the 2-cycle is walked, so the path's
    # 1 100 closed-walk levels are never computed.
    path = nested_path(1100)
    n = path.node_count
    arena = Arena(path.successors + ((n + 1,), (n,)), path.colors + (1, 2))
    game = ParityGame(arena=arena, owners=(1,) * n + (0, 0))
    calls = count_tarjan_calls(monkeypatch)
    assert verify_solution(game, Solution((0,) * n + (1, 1)))
    assert len(calls) <= 3


def test_verify_deep_parity_nesting_does_not_recurse(monkeypatch):
    # Player 0 claims the whole path colored v and v + 2 (tests.helpers
    # parity_path), whose closed walks all have even minima and whose
    # components nest about one parity run per two nodes.  Its two peel
    # runs cover all m edges; the divide and conquer over the k runs hands
    # each edge on at most once per level.
    n = 4000
    arena = parity_path(n)
    game = ParityGame(arena=arena, owners=(1,) * n)
    k = len(cycles._run_starts(sorted(set(arena.colors))))
    _, edges, _ = count_tarjan_work(monkeypatch)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert verify_solution(game, Solution((0,) * n))
    finally:
        sys.setrecursionlimit(old_limit)
    m = sum(map(len, arena.successors))
    assert len(edges) > 2
    assert sum(edges) <= m * ((k - 1).bit_length() + 3)


@st.composite
def claims(draw: st.DrawFn) -> tuple[ParityGame, Solution]:
    """A small game and a claimed solution whose strategy tables are
    valid: a winner labeling, Zielonka's or any, and at each node its
    winner owns one of its successors, inside the region where it can."""
    game = draw(games(max_nodes=6, max_color=5, allow_self_loops=True))
    n = game.node_count
    if draw(st.booleans()):
        winner = zielonka_solve(game).winner
    else:
        winner = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    strategies: tuple[dict, dict] = ({}, {})
    for v, s in enumerate(winner):
        if game.owners[v] == s:
            out = game.arena.successors[v]
            inside = [w for w in out if winner[w] == s]
            strategies[s][v] = draw(st.sampled_from(inside or out))
    return game, Solution(winner, *strategies)


@given(claims())
@settings(max_examples=300)
def test_verify_verdict_equals_the_reference_verdict(claim):
    game, solution = claim
    assert walk_verdict(game, solution) == walk_verdict_reference(game, solution)


def test_zielonka_deep_game_keeps_recursion_limit():
    # Player 1 owns every node of an all-even nested path: every level of
    # the solver peels one end off, so the subgames nest 1 100 deep.
    arena = nested_path(1100)
    game = ParityGame(arena=arena, owners=(1,) * arena.node_count)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        solution = zielonka_solve(game)
        assert solution.winner == (0,) * arena.node_count
        assert verify_solution(game, solution)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old_limit)
