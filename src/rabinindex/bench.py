"""Benchmark harness: index statistics and timings over game batches.

A benchmark configuration is a line-oriented text file; each non-comment
line names one batch::

    clique 100
    jurdzinski 5 10 runs=20
    random 100/1/20/100 runs=100 seed=7

Family batches re-run the game built as the line is read ``runs`` times
(timings averaged, indices constant); random batches draw a fresh game
per run from consecutive seeds, so index columns become means as well.
Every batch yields one CSV row with a fixed column set: the original
index mu(c), the statically compressed index mu(s(c)) and the abstract
reduction's index ri_alpha, plus wall-clock means (ms) for static
compression, the abstract reduction, and solving the original,
statically compressed, and alpha-reduced games.

A line's game is read by :func:`~rabinindex.generators.parse_game_spec`
and checked by its builder as the line is read, both as for ``rabinindex
gen``, so a bad line stops the read in the builder's words and no batch
is dropped.  The specs and rows are the package's own
:class:`~rabinindex.arena.Record` classes: like every module of the
package, this one imports neither ``dataclasses`` nor ``typing``.
"""

from __future__ import annotations

import csv
import io
import time
from math import fsum

from .arena import ParityGame, Record, index
from .generators import RandomConfig, gen_family, gen_random, parse_game_spec
from .reduction import OracleMode, rabin, static_compress
from .solver import zielonka_solve


class BatchSpec(Record):
    """One parsed configuration line: its label, its game (a random
    batch's :class:`~rabinindex.generators.RandomConfig`, or the family
    game its builder made), and its run count, None for the harness-wide
    default."""

    __match_args__ = ("label", "game", "runs")

    def __init__(self, label: str, game: RandomConfig | ParityGame, runs: int | None) -> None:
        self.label = label
        self.game = game
        self.runs = runs


class BenchRow(Record):
    """One CSV row; ``__match_args__``, in order, are the columns, and
    the constructor takes one value per column in that order."""

    __match_args__ = (
        "game", "mu_c", "mu_s_c", "ri_alpha", "static_ms", "alpha_ms",
        "solve_ms", "solve_static_ms", "solve_alpha_ms", "runs",
    )

    def __init__(self, *cells: str | float) -> None:
        if len(cells) != len(self.__match_args__):
            raise TypeError(f"a row has {len(self.__match_args__)} cells, got {len(cells)}")
        self.__dict__.update(zip(self.__match_args__, cells))

    def as_record(self) -> dict[str, str]:
        return {column: _cell(column, getattr(self, column)) for column in BENCH_COLUMNS}


BENCH_COLUMNS = BenchRow.__match_args__


def _cell(column: str, value: str | float) -> str:
    """Labels verbatim, times (``*_ms``) to the microsecond, counts and their
    means as integers when integral and to two decimals otherwise."""
    if isinstance(value, str):
        return value
    if column.endswith("_ms"):
        return f"{value:.3f}"
    return str(int(value)) if value == int(value) else f"{value:.2f}"


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _parse_batch(line: str) -> BatchSpec:
    tokens = line.split()
    options: dict[str, int] = {}
    while tokens and "=" in tokens[-1]:
        token = tokens.pop()
        key, _, value = token.partition("=")
        if key not in ("runs", "seed"):
            raise ValueError(f"unknown option {token!r}")
        if key in options:
            raise ValueError(f"repeated option {key!r}")
        options[key] = _parse_int(key, value)
        if key == "runs":
            _check_runs(options[key])
    game = parse_game_spec(tokens, seed=options.get("seed", 0))
    if isinstance(game, RandomConfig):  # checked whole by its constructor
        label = game.label()
    else:
        label = f"{game[0]}[{' '.join(tokens[1:])}]"
        game = gen_family(*game)  # the builder's own check, as for `gen`
    return BatchSpec(label, game, options.get("runs"))


def parse_bench_config(text: str) -> list[BatchSpec]:
    """Parse a configuration file into batch specs; rejects malformed lines,
    and family parameters the builder refuses, naming the line."""
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            specs.append(_parse_batch(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return specs


def _game_for_run(spec: BatchSpec, run: int) -> ParityGame:
    if isinstance(spec.game, RandomConfig):  # a fresh game per run
        c = spec.game
        return gen_random(RandomConfig(c.nodes, c.min_out, c.max_out, c.max_color, c.seed + run))
    return spec.game


def _timed(samples: list[float], fn, *args, **kwargs):
    """Call ``fn``, appending its wall-clock time in ms to ``samples``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    samples.append((time.perf_counter() - start) * 1000.0)
    return result


def bench_batch(spec: BatchSpec, default_runs: int = 1) -> BenchRow:
    """Measure one batch: indices plus mean wall-clock times over its runs."""
    runs = spec.runs if spec.runs is not None else default_runs
    _check_runs(runs)
    # One sample list per column but the label and the run count.
    samples: dict[str, list[float]] = {column: [] for column in BENCH_COLUMNS[1:-1]}
    for run in range(runs):
        game = _game_for_run(spec, run)
        colors = game.arena.colors
        compressed = _timed(samples["static_ms"], static_compress, colors)
        reduced, _ = _timed(samples["alpha_ms"], rabin, game.arena, mode=OracleMode.ABSTRACT)
        samples["mu_c"].append(index(colors))
        samples["mu_s_c"].append(index(compressed))
        samples["ri_alpha"].append(index(reduced))
        for column, variant in (
            ("solve_ms", colors),
            ("solve_static_ms", compressed),
            ("solve_alpha_ms", reduced),
        ):
            _timed(samples[column], zielonka_solve, game.with_colors(variant))
    means = [fsum(values) / len(values) for values in samples.values()]
    return BenchRow(spec.label, *means, runs)


def bench_run(config_text: str, default_runs: int = 1) -> list[BenchRow]:
    """Run every batch in the configuration, one row each; it is read whole
    first, so a line :func:`parse_bench_config` rejects runs no batch."""
    return [bench_batch(spec, default_runs) for spec in parse_bench_config(config_text)]


def rows_to_csv(rows: list[BenchRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buffer.getvalue()
