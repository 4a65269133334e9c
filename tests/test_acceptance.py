"""Acceptance gate: ten end-to-end checks, one printed line each.

Every test prints exactly one ``[A#] PASS/FAIL`` line (outside pytest's
capture) and then asserts, so a plain ``pytest -v`` run doubles as the
acceptance report.
"""

from __future__ import annotations

import random
import time
from itertools import product
from statistics import fmean

from rabinindex.arena import Arena, ParityGame, index
from rabinindex.cycles import (
    cycle_through_with_color,
    enumerate_simple_cycles,
    simple_cycle_with_max_color,
)
from rabinindex.generators import RandomConfig, gen_family, gen_hardness_gadget, gen_random
from rabinindex.oracles import (
    brute_force_rabin_index,
    colorings_equivalent,
    fixpoint_violations,
    outcome_profile,
)
from rabinindex.pgsolver import parse_pgsolver
from rabinindex.reduction import OracleMode, rabin, static_compress
from rabinindex.solver import verify_solution, zielonka_solve

from conftest import FIG1_TEXT
from helpers import max_color_on_closed_walk, random_arena


def _report(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_running_example_end_to_end(capsys):
    start = time.perf_counter()
    problems = []

    game = parse_pgsolver(FIG1_TEXT)
    arena = game.arena
    if arena.colors != (3, 3, 2, 1, 2):
        problems.append(f"parsed colors {arena.colors}")

    exact, report = rabin(arena)
    if exact != (1, 2, 2, 1, 1):
        problems.append(f"exact reduction gave {exact}")
    if (report.initial_index, report.final_index) != (3, 2):
        problems.append(f"index went {report.initial_index} -> {report.final_index}")
    if report.iteration_count != 2:
        problems.append(f"{report.iteration_count} iterations")
    first = report.iterations[0]
    if first.cycle_changes != ((0, 3, 1),) or first.form_changes != ((1, 3, 2), (4, 2, 1)):
        problems.append(f"unexpected first-iteration trace {first}")
    if report.iterations[1].cycle_changes or report.iterations[1].form_changes:
        problems.append("second iteration was not a pure confirmation pass")

    alpha, alpha_report = rabin(arena, mode=OracleMode.ABSTRACT)
    if alpha != (3, 3, 2, 1, 1) or alpha_report.rank_trace != [11, 10]:
        problems.append(f"abstract reduction gave {alpha}, color sums {alpha_report.rank_trace}")

    solution = zielonka_solve(game)
    if solution.winner != (1, 0, 0, 1, 1):
        problems.append(f"winners {solution.winner}")
    if solution.strategy0 != {1: 2} or solution.strategy1 != {0: 4, 3: 4}:
        problems.append("unexpected strategies")
    check = verify_solution(game, solution)
    if not check:
        problems.append(f"verification failed: {check.reason}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _report(
        capsys,
        "A1",
        not problems,
        "; ".join(problems) or f"running example reduces, solves, verifies in {elapsed * 1000:.0f}ms",
    )


def test_a2_reduction_preserves_winners_and_outcomes(capsys):
    rng = random.Random(2026)
    arenas = [random_arena(rng, max_nodes=6) for _ in range(200)]
    mismatches = 0
    profile_mismatches = 0
    partitions = 0
    for arena in arenas:
        reduced, _ = rabin(arena)
        if not colorings_equivalent(arena, arena.colors, reduced, "simple"):
            mismatches += 1
            continue
        n = arena.node_count
        reduced_arena = arena.with_colors(reduced)
        for mask in range(1 << n):
            owners = tuple((mask >> v) & 1 for v in range(n))
            partitions += 1
            before = zielonka_solve(ParityGame(arena=arena, owners=owners)).winner
            after = zielonka_solve(ParityGame(arena=reduced_arena, owners=owners)).winner
            if before != after:
                mismatches += 1
        if n <= 5:
            for choice in product(*arena.successors):
                if outcome_profile(arena, arena.colors, choice) != outcome_profile(
                    arena, reduced, choice
                ):
                    profile_mismatches += 1
    ok = mismatches == 0 and profile_mismatches == 0
    _report(
        capsys,
        "A2",
        ok,
        f"200 arenas, {partitions} ownership partitions, winners and all "
        f"fixed-strategy outcomes preserved ({mismatches} winner, "
        f"{profile_mismatches} profile mismatches)",
    )


def test_a3_exact_reduction_reaches_brute_force_minimum(capsys):
    rng = random.Random(31337)
    wrong = 0
    for _ in range(500):
        arena = random_arena(rng, max_nodes=8, max_color=6)
        reduced, _ = rabin(arena)
        if index(reduced) != brute_force_rabin_index(arena):
            wrong += 1
    _report(
        capsys,
        "A3",
        wrong == 0,
        f"500 arenas up to 8 nodes, exact reduction matches exhaustive minimum ({wrong} wrong)",
    )


def test_a4_fixpoint_postconditions(capsys):
    problems = 0
    rng = random.Random(404)
    for _ in range(150):
        arena = random_arena(rng, max_nodes=10, max_color=7)
        exact, _ = rabin(arena)
        alpha, _ = rabin(arena, mode=OracleMode.ABSTRACT)
        problems += len(fixpoint_violations(arena, exact, "simple"))
        problems += len(fixpoint_violations(arena, alpha, "alpha"))

    large = [
        gen_family("clique", (40,)),
        gen_family("ladder", (40,)),
        gen_family("jurdzinski", (4, 6)),
        gen_family("recursive_ladder", (12,)),
        gen_family("model_checker_ladder", (40,)),
        gen_family("tower_of_hanoi", (4,)),
    ]
    for game in large:
        arena = game.arena
        exact, _ = rabin(arena)
        alpha, _ = rabin(arena, mode=OracleMode.ABSTRACT)
        # Exact mode: condition (a) is an SCC check; for (b) the closed-walk
        # version below is a sound necessary condition of the simple-cycle one.
        if not simple_cycle_with_max_color(arena, exact):
            problems += 1
        for colors in (exact, alpha):
            if not max_color_on_closed_walk(arena, colors):
                problems += 1
            for v in range(arena.node_count):
                if colors[v] > 1 and not cycle_through_with_color(
                    arena, colors, v, colors[v] - 1
                ):
                    problems += 1
    _report(
        capsys,
        "A4",
        problems == 0,
        f"max-color and one-less-cycle post-conditions hold on 150 small and 6 large instances ({problems} violations)",
    )


def test_a5_gadget_characterizes_index_by_st_cycles(capsys):
    rng = random.Random(55)
    k = 2
    with_cycle: list[tuple[Arena, int, int, bool]] = []
    without_cycle: list[tuple[Arena, int, int, bool]] = []
    while min(len(with_cycle), len(without_cycle)) < 12:
        base = random_arena(rng, min_nodes=3, max_nodes=6, max_degree=2, max_color=0)
        s, t = rng.sample(range(base.node_count), 2)
        has_st_cycle = any(
            s in cycle and t in cycle for cycle in enumerate_simple_cycles(base)
        )
        bucket = with_cycle if has_st_cycle else without_cycle
        if len(bucket) < 12:
            bucket.append((base, s, t, has_st_cycle))
    mismatches = []
    for base, s, t, has_st_cycle in with_cycle + without_cycle:
        gadget = gen_hardness_gadget(base, s, t, k)
        attained = brute_force_rabin_index(gadget)
        if (attained >= k) != has_st_cycle:
            mismatches.append((base, s, t, has_st_cycle, attained))
    detail = (
        f"24 bases (12 with an s-t cycle, 12 without): rabin index >= {k} "
        f"iff the base has a simple cycle through s and t "
        f"({len(mismatches)} mismatches)"
    )
    _report(capsys, "A5", not mismatches, detail)


def test_a6_reduction_orderings(capsys):
    rng = random.Random(606)
    violations = 0
    checked = 0
    for _ in range(300):
        arena = random_arena(rng, max_nodes=8, max_color=7)
        exact, _ = rabin(arena)
        alpha, _ = rabin(arena, mode=OracleMode.ABSTRACT)
        static = static_compress(arena.colors)
        checked += 1
        if not index(exact) <= index(alpha) <= index(static):
            violations += 1
    for name, params in (
        ("clique", (60,)),
        ("ladder", (60,)),
        ("jurdzinski", (5, 10)),
        ("recursive_ladder", (15,)),
        ("model_checker_ladder", (100,)),
        ("tower_of_hanoi", (5,)),
    ):
        arena = gen_family(name, params).arena
        alpha, _ = rabin(arena, mode=OracleMode.ABSTRACT)
        static = static_compress(arena.colors)
        checked += 1
        if not index(alpha) <= index(static) <= index(arena.colors):
            violations += 1
    _report(
        capsys,
        "A6",
        violations == 0,
        f"exact <= abstract <= static index ordering holds on {checked} instances ({violations} violations)",
    )


def test_a7_static_compression_example(capsys):
    got = static_compress((0, 3, 4, 5, 6, 8))
    _report(
        capsys,
        "A7",
        got == (0, 1, 2, 3, 4, 4),
        f"static_compress((0, 3, 4, 5, 6, 8)) == {got}",
    )


def test_a8_family_portfolio(capsys):
    # mu(c), mu(s(c)), the alpha index, and the alpha form's color sum.
    expected = {
        ("clique", (100,)): (100, 100, 99, 5049),
        ("ladder", (100,)): (2, 2, 2, 300),
        ("jurdzinski", (5, 10)): (12, 12, 11, 563),
        ("recursive_ladder", (15,)): (48, 46, 16, 391),
        ("model_checker_ladder", (100,)): (200, 200, 0, 0),
        ("tower_of_hanoi", (5,)): (2, 2, 1, 243),
    }
    wrong = []
    for (name, params), row in expected.items():
        arena = gen_family(name, params).arena
        reduced, _ = rabin(arena, mode=OracleMode.ABSTRACT)
        got = (
            index(arena.colors),
            index(static_compress(arena.colors)),
            index(reduced),
            sum(reduced),
        )
        if got != row:
            wrong.append(f"{name}{params}: {got} != {row}")
    _report(
        capsys,
        "A8",
        not wrong,
        "; ".join(wrong) or "all six families hit their frozen index/color-sum table",
    )


def test_a9_static_compression_on_random_games(capsys):
    mus = []
    mus_static = []
    for seed in range(100):
        arena = gen_random(RandomConfig(100, 1, 20, 100, seed=seed)).arena
        mus.append(index(arena.colors))
        mus_static.append(index(static_compress(arena.colors)))
    mean_mu = fmean(mus)
    mean_static = fmean(mus_static)
    reduction = 1.0 - mean_static / mean_mu
    ok = mean_static < 0.6 * mean_mu and abs(reduction - 0.54) <= 0.10
    _report(
        capsys,
        "A9",
        ok,
        f"100 random 100/1/20/100 games: mean index {mean_mu:.2f} -> {mean_static:.2f} "
        f"({reduction:.1%} reduction)",
    )


def test_a10_max_color_checks_agree(capsys):
    rng = random.Random(1010)
    disagreements = 0
    for _ in range(500):
        arena = random_arena(rng, max_nodes=40, max_color=8, max_degree=4)
        if simple_cycle_with_max_color(arena) != max_color_on_closed_walk(arena):
            disagreements += 1
    _report(
        capsys,
        "A10",
        disagreements == 0,
        f"simple-cycle and closed-walk max-color checks agree on 500 games ({disagreements} disagreements)",
    )
