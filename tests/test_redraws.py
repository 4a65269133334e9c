"""Ownership redraws referee every reduction path past brute force's reach;
brute force referees the colorings aborted exact runs leave."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabinindex.generators import RandomConfig, gen_family, gen_random
from rabinindex.oracles import colorings_equivalent
from rabinindex.reduction import ReductionAborted, rabin, static_compress

from helpers import arenas, random_arena, redraw_check, replay


def _reductions(arena, exact: bool):
    """The input's static compression and alpha form, and its exact
    reduction when ``exact``, run to the end under the default budget.
    The tests of aborted runs take their colorings from the aborts."""
    colorings = [static_compress(arena.colors), rabin(arena, mode="alpha")[0]]
    if exact:
        colorings.append(rabin(arena, mode="exact")[0])
    return colorings


@pytest.mark.parametrize(
    "spec, seed",
    [
        ("2000/1/2/2000", 2),
        ("400/3/5/400", 1),
        ("100/1/20/100", 1),
        ("100/1/20/100", 2),
    ],
)
def test_seeded_random_games_keep_their_winners(spec, seed):
    arena = gen_random(RandomConfig.parse(spec, seed=seed)).arena
    redraw_check(arena, _reductions(arena, exact=False), 3, random.Random(seed))


@pytest.mark.parametrize(
    "name, params",
    [
        ("clique", (6,)),
        ("ladder", (10,)),
        ("jurdzinski", (2, 3)),
        ("recursive_ladder", (6,)),
        ("model_checker_ladder", (10,)),
        ("tower_of_hanoi", (3,)),
    ],
)
def test_finished_exact_runs_on_families_keep_their_winners(name, params):
    arena = gen_family(name, params).arena
    redraw_check(arena, _reductions(arena, exact=True), 4, random.Random(name))


@pytest.mark.parametrize("seed", range(1, 11))
def test_finished_exact_runs_on_random_games_keep_their_winners(seed):
    arena = gen_random(RandomConfig(30, 1, 3, 30, seed=seed)).arena
    redraw_check(arena, _reductions(arena, exact=True), 4, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(arenas(max_nodes=8, max_color=7), st.randoms(use_true_random=False))
def test_every_reduction_of_a_small_arena_keeps_its_winners(arena, rng):
    redraw_check(arena, _reductions(arena, exact=True), 3, rng)


def _abort(arena, budget_limit: int) -> ReductionAborted:
    with pytest.raises(ReductionAborted) as excinfo:
        rabin(arena, budget_limit=budget_limit)
    return excinfo.value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_aborted_exact_runs_on_random_games_keep_their_winners(seed):
    # Each run stops in its first cycle pass, having recolored 30, 5 and
    # 47 nodes.
    arena = gen_random(RandomConfig.parse("100/1/20/100", seed=seed)).arena
    aborted = _abort(arena, 2 * 10**5)
    assert aborted.coloring != arena.colors
    assert replay(arena.colors, aborted.report) == aborted.coloring
    redraw_check(arena, [aborted.coloring], 3, random.Random(seed))


def test_an_aborted_exact_run_on_jurdzinski_keeps_its_winners():
    # The run stops in its second cycle pass.  Its first cycle pass lowered
    # no node, and the alpha form after it lowered ten.
    arena = gen_family("jurdzinski", (5, 10)).arena
    aborted = _abort(arena, 10**4)
    assert aborted.coloring != arena.colors
    assert replay(arena.colors, aborted.report) == aborted.coloring
    redraw_check(arena, [aborted.coloring], 4, random.Random("jurdzinski"))


def test_every_abort_on_a_small_arena_leaves_an_equivalent_coloring():
    # Brute force over the simple cycles, at budgets that stop runs before,
    # during and after their first recolorings: 1 469 aborts, 887 of them
    # after some node was recolored.  Each report replays to its coloring.
    rng = random.Random(32)
    aborts = changed = 0
    for _ in range(500):
        arena = random_arena(rng, max_nodes=8, max_color=9)
        for limit in (0, 1, 2, 5, 20):
            try:
                rabin(arena, budget_limit=limit)
            except ReductionAborted as exc:
                aborts += 1
                changed += exc.coloring != arena.colors
                assert exc.report.final_index == max(exc.coloring)
                assert replay(arena.colors, exc.report) == exc.coloring
                assert colorings_equivalent(arena, arena.colors, exc.coloring, "simple")
    assert aborts > changed > 500


def test_a_coloring_of_flipped_parity_fails_the_check(fig1_game):
    # Raising every color by one flips the parity of every cycle.  On the
    # first draw the solution of the shifted coloring already loses a cycle
    # on the original game.
    arena = fig1_game.arena
    shifted = tuple(c + 1 for c in arena.colors)
    message = "^coloring 1, draw 0: player 1 region admits a cycle of color 2$"
    with pytest.raises(AssertionError, match=message):
        redraw_check(arena, [arena.colors, shifted], 1, random.Random(0))
