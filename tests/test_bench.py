"""Benchmark configuration parsing and CSV assembly."""

from __future__ import annotations

import pytest

from rabinindex.bench import (
    BENCH_COLUMNS,
    BatchSpec,
    BenchRow,
    bench_batch,
    bench_run,
    parse_bench_config,
    rows_to_csv,
)
from rabinindex import bench
from rabinindex.generators import RandomConfig, gen_clique, gen_jurdzinski


CONFIG = """\
# families from the standard suite
clique 100
jurdzinski 5 10 runs=3

random 40/1/8/40 runs=5 seed=9
"""


def test_parse_bench_config():
    specs = parse_bench_config(CONFIG)
    assert [s.label for s in specs] == ["clique[100]", "jurdzinski[5 10]", "40/1/8/40"]
    # Each game is what the package's own grammar reads from the line; a
    # family's is the game its builder made.
    assert specs[0] == BatchSpec("clique[100]", gen_clique(100), None)
    assert specs[1] == BatchSpec("jurdzinski[5 10]", gen_jurdzinski(5, 10), 3)
    assert specs[2] == BatchSpec("40/1/8/40", RandomConfig(40, 1, 8, 40, seed=9), 5)


def test_parse_bench_config_errors():
    with pytest.raises(ValueError, match="line 1: unknown option 'mode=fast'"):
        parse_bench_config("clique 10 mode=fast")
    with pytest.raises(ValueError, match="line 2: bad parameter"):
        parse_bench_config("clique 10\nladder five")
    with pytest.raises(ValueError, match="line 2: repeated option 'runs'"):
        parse_bench_config("clique 3\nclique 3 runs=2 runs=5")
    with pytest.raises(ValueError, match="line 1: repeated option 'seed'"):
        parse_bench_config("random 10/1/3/5 seed=1 runs=2 seed=1")
    with pytest.raises(ValueError, match="^line 1: runs must be at least 1, got 0$"):
        parse_bench_config("clique 10 runs=0")
    with pytest.raises(ValueError, match="^line 1: runs must be at least 1, got -3$"):
        parse_bench_config("clique 10 seed=abc runs=-3")
    with pytest.raises(ValueError, match="line 1: no game named"):
        parse_bench_config("runs=4")
    with pytest.raises(ValueError, match="line 3: random takes one"):
        parse_bench_config("\n\nrandom 10/1/3/5 20/1/3/5")
    with pytest.raises(ValueError, match="line 1: runs must be an integer, got 'abc'"):
        parse_bench_config("clique 3 runs=abc")
    with pytest.raises(ValueError, match="line 2: seed must be an integer, got 'abc'"):
        parse_bench_config("clique 3\nclique 3 seed=abc")
    with pytest.raises(ValueError, match="line 1: max out-degree 9 impossible"):
        parse_bench_config("random 5/1/9/3")
    with pytest.raises(ValueError, match="line 2: unknown family 'foo'; known: clique, "):
        parse_bench_config("ladder 3\nfoo 3")
    with pytest.raises(
        ValueError, match=r"line 1: family 'jurdzinski' takes 2 parameter\(s\), got 1"
    ):
        parse_bench_config("jurdzinski 2")
    # A family's builder checks its parameters as the line is read, in the
    # words `rabinindex gen` prints.
    with pytest.raises(ValueError, match="^line 2: clique needs at least 2 nodes, got 1$"):
        parse_bench_config("ladder 3\nclique 1")
    with pytest.raises(
        ValueError, match=r"^line 1: jurdzinski needs positive layer counts, got 0, 5$"
    ):
        parse_bench_config("jurdzinski 0 5 runs=2")


def test_parse_bench_config_empty():
    assert parse_bench_config("# only a comment\n\n") == []


def test_bench_batch_ladder():
    spec = parse_bench_config("ladder 3 runs=2")[0]
    row = bench_batch(spec)
    assert row.game == "ladder[3]"
    assert row.mu_c == 2
    assert row.mu_s_c == 2
    assert row.ri_alpha == 2
    assert row.runs == 2
    for ms in (row.static_ms, row.alpha_ms, row.solve_ms, row.solve_static_ms, row.solve_alpha_ms):
        assert ms >= 0.0


def test_a_family_batch_builds_its_game_once(monkeypatch):
    # The game the read built serves every run.
    builds = []

    def gen_family(*args):
        builds.append(args)
        return real(*args)

    real = bench.gen_family
    monkeypatch.setattr(bench, "gen_family", gen_family)
    (row,) = bench_run("tower_of_hanoi 5 runs=3")
    assert builds == [("tower_of_hanoi", (5,))]
    assert (row.game, row.mu_c, row.mu_s_c, row.ri_alpha, row.runs) == (
        "tower_of_hanoi[5]", 2, 2, 1, 3
    )


def test_bench_batch_default_runs():
    spec = parse_bench_config("ladder 2")[0]
    assert bench_batch(spec, default_runs=4).runs == 4


def test_bench_rejects_runs_below_one():
    with pytest.raises(ValueError, match="runs must be at least 1, got 0"):
        bench_run("ladder 2\nladder 3", default_runs=0)
    spec = parse_bench_config("ladder 2")[0]
    with pytest.raises(ValueError, match="runs must be at least 1, got -1"):
        bench_batch(spec, default_runs=-1)


def test_bench_run_rejects_a_family_its_builder_refuses(monkeypatch):
    # A one-node clique cannot be built (no successors).  The run stops
    # when it reads that line, before any batch is timed, rather than
    # drop the row.
    batches = []
    monkeypatch.setattr("rabinindex.bench.bench_batch", lambda *args: batches.append(args))
    with pytest.raises(ValueError, match="^line 2: clique needs at least 2 nodes, got 1$"):
        bench_run("ladder 2\nclique 1\nladder 3")
    assert batches == []


def test_rows_to_csv():
    rows = bench_run("ladder 3 runs=2")
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 2
    first = lines[1].split(",")
    assert first[0] == "ladder[3]"
    assert first[1:4] == ["2", "2", "2"]
    assert first[-1] == "2"


def test_bench_columns_follow_bench_row_fields():
    assert BENCH_COLUMNS == BenchRow.__match_args__
    row = BenchRow(*BENCH_COLUMNS)
    assert [getattr(row, column) for column in BENCH_COLUMNS] == list(BENCH_COLUMNS)
    with pytest.raises(TypeError, match="a row has 10 cells, got 9"):
        BenchRow(*BENCH_COLUMNS[:-1])


def test_random_batch_means_print_with_two_decimals():
    lines = rows_to_csv(bench_run("random 40/1/4/40 runs=3 seed=2")).splitlines()
    record = dict(zip(BENCH_COLUMNS, lines[1].split(",")))
    assert [record[c] for c in ("mu_c", "mu_s_c", "ri_alpha", "runs")] == [
        "39.67", "19", "6.67", "3"
    ]


def test_rows_to_csv_empty():
    assert rows_to_csv([]) == ",".join(BENCH_COLUMNS) + "\n"
