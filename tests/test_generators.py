"""Game generators: random model, benchmark families, spine gadget."""

from __future__ import annotations

import pytest

from rabinindex.arena import Arena
from rabinindex.generators import (
    FAMILY_NAMES,
    RandomConfig,
    gen_clique,
    gen_family,
    gen_hardness_gadget,
    gen_jurdzinski,
    gen_ladder,
    gen_model_checker_ladder,
    gen_random,
    gen_recursive_ladder,
    gen_tower_of_hanoi,
)
from rabinindex.oracles import colorings_equivalent
from rabinindex.pgsolver import write_pgsolver


def test_random_config_parse():
    config = RandomConfig.parse("100/1/20/100", seed=7)
    assert config == RandomConfig(nodes=100, min_out=1, max_out=20, max_color=100, seed=7)
    assert config.label() == "100/1/20/100"


def test_random_config_parse_rejects_garbage():
    with pytest.raises(ValueError, match="xx/yy/zz/cc"):
        RandomConfig.parse("100/1/20")
    with pytest.raises(ValueError, match="xx/yy/zz/cc"):
        RandomConfig.parse("a/b/c/d")


def test_random_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        RandomConfig(1, 1, 1, 0)
    with pytest.raises(ValueError, match=">= 1"):
        RandomConfig(4, 0, 2, 0)
    with pytest.raises(ValueError, match="out of order"):
        RandomConfig(4, 3, 2, 0)
    with pytest.raises(ValueError, match="impossible"):
        RandomConfig(4, 1, 4, 0)
    with pytest.raises(ValueError, match="max color"):
        RandomConfig(4, 1, 2, -1)


def test_gen_random_deterministic():
    config = RandomConfig(12, 1, 4, 6, seed=99)
    first = gen_random(config)
    second = gen_random(config)
    assert first.arena == second.arena
    assert first.owners == second.owners
    other_seed = gen_random(RandomConfig(12, 1, 4, 6, seed=100))
    assert (first.arena, first.owners) != (other_seed.arena, other_seed.owners)


def test_gen_random_invariants():
    config = RandomConfig(30, 2, 5, 9, seed=3)
    game = gen_random(config)
    arena = game.arena
    assert arena.node_count == 30
    for v in range(30):
        succ = arena.successors[v]
        assert 2 <= len(succ) <= 5
        assert v not in succ
        assert len(set(succ)) == len(succ)
        assert 0 <= arena.colors[v] <= 9
    assert set(game.owners) <= {0, 1}


def test_gen_random_two_nodes_is_a_two_cycle():
    game = gen_random(RandomConfig(2, 1, 1, 0, seed=5))
    assert game.arena.successors == ((1,), (0,))


def test_family_node_counts():
    assert gen_clique(7).arena.node_count == 7
    assert gen_ladder(5).arena.node_count == 10
    assert gen_jurdzinski(2, 3).arena.node_count == 2 * 2 * 3 + 2
    assert gen_recursive_ladder(4).arena.node_count == 3 * 4 + 2
    assert gen_model_checker_ladder(6).arena.node_count == 12
    assert gen_tower_of_hanoi(3).arena.node_count == 27


def test_clique_structure():
    game = gen_clique(4)
    arena = game.arena
    assert arena.colors == (1, 2, 3, 4)
    assert game.owners == (0, 1, 0, 1)
    for v in range(4):
        assert arena.successors[v] == tuple(w for w in range(4) if w != v)


def test_ladder_structure():
    game = gen_ladder(3)
    arena = game.arena
    assert arena.colors == (2, 1, 2, 1, 2, 1)
    assert game.owners == (0, 1, 0, 1, 0, 1)
    for v in range(6):
        assert arena.successors[v] == ((v + 1) % 6, (v + 2) % 6)


def test_tower_of_hanoi_structure():
    game = gen_tower_of_hanoi(1)
    arena = game.arena
    # One disc: three peg states, each movable to the other two.
    assert arena.node_count == 3
    assert arena.colors == (1, 1, 2)
    for v in range(3):
        assert arena.successors[v] == tuple(w for w in range(3) if w != v)


@pytest.mark.parametrize(
    "name, params, filename",
    [
        ("clique", (4,), "clique4.gm"),
        ("ladder", (3,), "ladder3.gm"),
        ("jurdzinski", (2, 2), "jurdzinski2_2.gm"),
        ("recursive_ladder", (3,), "recursive_ladder3.gm"),
        ("model_checker_ladder", (4,), "model_checker_ladder4.gm"),
        ("tower_of_hanoi", (2,), "tower_of_hanoi2.gm"),
    ],
)
def test_family_golden_files(data_dir, name, params, filename):
    game = gen_family(name, params)
    assert write_pgsolver(game) == (data_dir / filename).read_text()


def test_random_golden_file(data_dir):
    game = gen_random(RandomConfig(10, 1, 3, 5, seed=7))
    assert write_pgsolver(game) == (data_dir / "random_10_1_3_5_s7.gm").read_text()


def test_gen_family_dispatch_errors():
    assert set(FAMILY_NAMES) == {
        "clique",
        "ladder",
        "jurdzinski",
        "recursive_ladder",
        "model_checker_ladder",
        "tower_of_hanoi",
    }
    with pytest.raises(ValueError, match="unknown family"):
        gen_family("escher_staircase", (3,))
    with pytest.raises(ValueError, match="parameter"):
        gen_family("jurdzinski", (3,))
    with pytest.raises(ValueError, match="parameter"):
        gen_family("clique", (3, 4))


@pytest.mark.parametrize(
    "build, message",
    [
        (gen_ladder, "ladder needs a positive layer count, got 0"),
        (gen_recursive_ladder, "recursive ladder needs a positive size, got 0"),
        (gen_model_checker_ladder, "model checker ladder needs a positive size, got 0"),
        (gen_tower_of_hanoi, "tower of hanoi needs at least one disc, got 0"),
    ],
)
def test_builders_refuse_size_zero(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(0)


def test_gadget_shape(triangle_gadget):
    # Base triangle 0 -> 1 -> 2 -> 0 with s = 0, t = 2, k = 2.
    # c(s) = 1, interior u = 3, c(t) = 2, spine p_0..p_2 = 2, 1, 0.
    assert triangle_gadget.colors == (1, 3, 2, 2, 1, 0)
    assert triangle_gadget.has_edge(2, 3) and triangle_gadget.has_edge(3, 2)
    assert triangle_gadget.has_edge(0, 5) and triangle_gadget.has_edge(5, 0)
    assert triangle_gadget.has_edge(3, 4) and triangle_gadget.has_edge(4, 3)
    assert triangle_gadget.has_edge(4, 5) and triangle_gadget.has_edge(5, 4)


# Bases without a simple cycle through s and t, as (successors, s, t).
_NO_ST_CYCLE_BASES = (
    # s -> u -> t; t has no successors and is totalized with a self-loop.
    (((1,), (2,), ()), 0, 2),
    # Cycles through s only (0 2), t only (1 3) and neither (4 5); s -> t
    # directly, but nothing leads back from t to s.
    (((1, 2), (3,), (0,), (1, 4), (5,), (4,)), 0, 1),
    # t = 0 reaches s = 1 through the interior node 2; s only loops on
    # itself, and t lies on the cycle 0 2 3.
    (((2,), (1,), (1, 3), (0,)), 1, 0),
)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("base, s, t", _NO_ST_CYCLE_BASES)
def test_gadget_upper_bound_witness(base, s, t, k):
    # The coloring from gen_hardness_gadget's upper-bound argument.
    arena = gen_hardness_gadget(base, s, t, k)
    n = len(base)
    witness = [k - 1] * arena.node_count
    witness[t] = k - 2
    for i in range(2, k + 1):
        witness[n + i] = k - i
    assert max(witness) == k - 1
    assert colorings_equivalent(arena, arena.colors, tuple(witness))


def test_gadget_validation():
    base = ((1,), (0,))
    with pytest.raises(ValueError, match="k >= 2"):
        gen_hardness_gadget(base, 0, 1, 1)
    with pytest.raises(ValueError, match="must differ"):
        gen_hardness_gadget(base, 0, 0, 2)
    with pytest.raises(ValueError, match="not in the base"):
        gen_hardness_gadget(base, 0, 5, 2)


def test_gadget_totalizes_bare_listings():
    # Node 1 has no successors in the raw base; it gets a self-loop.
    arena = gen_hardness_gadget(((1,), ()), s=0, t=1, k=2)
    assert arena.has_edge(1, 1)
    assert isinstance(arena, Arena)


def test_gadget_spine_colors():
    arena = gen_hardness_gadget(((1,), (0,)), s=0, t=1, k=4)
    # Base colors first: c(s) = 3, c(t) = 4; spine descends 4..0.
    assert arena.colors == (3, 4, 4, 3, 2, 1, 0)
    assert arena.has_edge(1, 2) and arena.has_edge(2, 1)  # t with spine top
    assert arena.has_edge(0, 4) and arena.has_edge(4, 0)  # s with color k - 2
