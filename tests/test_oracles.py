"""Brute-force oracles used to cross-check the polynomial algorithms."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings

from rabinindex.arena import Arena, ParityGame, index
from rabinindex.cycles import NodeCapExceeded
from rabinindex.oracles import (
    brute_force_rabin_index,
    brute_force_winners,
    colorings_equivalent,
    cycle_families,
    equivalence_witness,
    fixpoint_violations,
    outcome_profile,
)
from rabinindex.reduction import rabin

from helpers import arenas


def test_cycle_families_simple_fig1(fig1_arena):
    assert cycle_families(fig1_arena, "simple") == (
        (0, 1),
        (0, 1, 2, 3, 4),
        (1, 2),
        (3, 4),
    )


def test_cycle_families_alpha(aidiff_arena):
    assert cycle_families(aidiff_arena, "alpha") == ((0, 1), (0, 1, 2), (0, 2))


def test_cycle_families_rejects_unknown_relation(fig1_arena):
    with pytest.raises(ValueError, match="relation"):
        cycle_families(fig1_arena, "walks")


def test_equivalence_witness_reflexive(fig1_arena):
    colors = fig1_arena.colors
    assert equivalence_witness(fig1_arena, colors, colors, "simple") is None
    assert equivalence_witness(fig1_arena, colors, colors, "alpha") is None


def test_equivalence_relations_differ(aidiff_arena, aidiff_other):
    first = aidiff_arena.colors
    # Simple cycles cannot tell (2, 1, 2) from (2, 1, 0): both cycles
    # through x have minimum color of odd parity either way.
    assert equivalence_witness(aidiff_arena, first, aidiff_other, "simple") is None
    # The closed walk covering all three nodes separates them.
    witness = equivalence_witness(aidiff_arena, first, aidiff_other, "alpha")
    assert witness == (0, 1, 2)
    assert not colorings_equivalent(aidiff_arena, first, aidiff_other, "alpha")


def test_equivalence_witness_length_check(fig1_arena):
    with pytest.raises(ValueError, match="coloring has 2 entries for 5 nodes"):
        equivalence_witness(fig1_arena, (0, 0), fig1_arena.colors)


def test_brute_force_rabin_index_small_cases(fig1_arena, chain_arena):
    assert brute_force_rabin_index(Arena(((1,), (0,)), (0, 0))) == 0
    assert brute_force_rabin_index(Arena(((1,), (0,)), (1, 1))) == 1
    assert brute_force_rabin_index(fig1_arena) == 2
    assert brute_force_rabin_index(chain_arena) == 3


def test_brute_force_rabin_index_unbounded_agrees(fig1_arena):
    assert brute_force_rabin_index(fig1_arena, bounded_by_input=False) == 2


def test_brute_force_rabin_index_gadgets(triangle_gadget):
    # The triangle is an s-t cycle, which forces index >= 2.  Its interior
    # node u (color 3) lies only on the triangle, so recoloring u to 1 keeps
    # the triangle's min at c(s) = 1 and gives an equivalent coloring of
    # max 2: the index is exactly 2.
    assert brute_force_rabin_index(triangle_gadget) == 2
    # A base with edges both ways between s and t pins the full chain.
    from rabinindex.generators import gen_hardness_gadget

    both_ways = gen_hardness_gadget(((1,), (0,)), s=0, t=1, k=2)
    assert brute_force_rabin_index(both_ways) == 2


@given(arenas(max_nodes=5, max_color=5))
@settings(max_examples=40)
def test_brute_force_rabin_index_bounds(arena):
    k = brute_force_rabin_index(arena)
    assert 0 <= k <= index(arena.colors)
    assert k == brute_force_rabin_index(arena, bounded_by_input=False)


def test_fixpoint_violations_on_reduced(fig1_arena):
    colors, _ = rabin(fig1_arena)
    assert fixpoint_violations(fig1_arena, colors, "simple") == []


def test_fixpoint_violations_detects_slack():
    arena = Arena(((1,), (0,)), (2, 2))
    problems = fixpoint_violations(arena, arena.colors)
    assert problems == [
        "node 0 (color 2) lies on no cycle of color 1",
        "node 1 (color 2) lies on no cycle of color 1",
    ]


def test_fixpoint_violations_missing_max():
    # Color 2 appears only off-cycle, so no cycle realises the maximum.
    arena = Arena(((1, 2), (0,), (0,)), (0, 0, 2))
    problems = fixpoint_violations(arena, arena.colors)
    assert "no cycle realises the maximal color 2" in problems


def test_outcome_profile_fig1(fig1_arena):
    colors = fig1_arena.colors
    # Committing to the two short odd cycles loses everywhere for player 0.
    assert outcome_profile(fig1_arena, colors, (1, 0, 1, 4, 3)) == (1, 1, 1, 1, 1)
    # Routing everything into the even v1 v2 cycle wins everywhere.
    assert outcome_profile(fig1_arena, colors, (4, 2, 1, 2, 3)) == (0, 0, 0, 0, 0)


def test_outcome_profile_validates_choices(fig1_arena):
    with pytest.raises(ValueError, match="length"):
        outcome_profile(fig1_arena, fig1_arena.colors, (1, 0))
    with pytest.raises(ValueError, match="edge"):
        outcome_profile(fig1_arena, fig1_arena.colors, (2, 0, 1, 4, 3))


def test_all_choice_functions_count(fig1_arena):
    choices = list(product(*fig1_arena.successors))
    degrees = [len(s) for s in fig1_arena.successors]
    expected = 1
    for d in degrees:
        expected *= d
    assert len(choices) == expected == 8
    assert len(set(choices)) == len(choices)


def test_brute_force_winners_fig1(fig1_game):
    assert brute_force_winners(fig1_game) == (1, 0, 0, 1, 1)


def test_brute_force_winners_profile_cap(fig1_game):
    with pytest.raises(NodeCapExceeded, match="profiles"):
        brute_force_winners(fig1_game, max_profiles=4)


@given(arenas(max_nodes=5, max_color=4))
@settings(max_examples=30)
def test_winners_do_not_depend_on_ownership_under_fixed_choices(arena):
    # outcome_profile treats a choice function as a strategy pair for any
    # ownership split, so flipping all owners must not change profiles.
    for choice in product(*arena.successors):
        profile = outcome_profile(arena, arena.colors, choice)
        assert all(w in (0, 1) for w in profile)
        break  # one representative per arena keeps this cheap
