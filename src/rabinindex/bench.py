"""Benchmark harness: index statistics and timings over game batches.

A benchmark configuration is a line-oriented text file; each non-comment
line names one batch::

    clique 100
    jurdzinski 5 10 runs=20
    random 100/1/20/100 runs=100 seed=7

Family batches re-run the same game ``runs`` times (timings averaged,
indices constant); random batches draw a fresh game per run from
consecutive seeds, so index columns become means as well.  Every batch
yields one CSV row with a fixed column set: the original index mu(c), the
statically compressed index mu(s(c)) and the abstract reduction's index
ri_alpha, plus wall-clock means (ms) for static compression, the abstract
reduction, and solving the original, statically compressed, and
alpha-reduced games.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass, fields
from math import fsum
from typing import Any, Callable

from .arena import ParityGame, index
from .generators import RandomConfig, gen_family, gen_random, parse_game_spec
from .reduction import OracleMode, rabin, static_compress
from .solver import zielonka_solve

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class BatchSpec:
    """One parsed configuration line."""

    label: str
    name: str = ""
    params: tuple[int, ...] = ()
    random_config: RandomConfig | None = None
    runs: int | None = None  # None: use the harness-wide default


@dataclass(frozen=True)
class BenchRow:
    """One CSV row; the fields, in order, are the columns."""

    game: str
    mu_c: float
    mu_s_c: float
    ri_alpha: float
    static_ms: float
    alpha_ms: float
    solve_ms: float
    solve_static_ms: float
    solve_alpha_ms: float
    runs: int

    def as_record(self) -> dict[str, str]:
        return {column: _cell(column, getattr(self, column)) for column in BENCH_COLUMNS}


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _cell(column: str, value: str | float) -> str:
    """Labels verbatim, times (``*_ms``) to the microsecond, counts and their
    means as integers when integral and to two decimals otherwise."""
    if isinstance(value, str):
        return value
    if column.endswith("_ms"):
        return f"{value:.3f}"
    return str(int(value)) if value == int(value) else f"{value:.2f}"


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _parse_batch(line: str) -> BatchSpec:
    tokens = line.split()
    runs: int | None = None
    seed = 0
    while tokens and "=" in tokens[-1]:
        key, _, value = tokens[-1].partition("=")
        if key == "runs":
            runs = _parse_int(key, value)
            if runs < 1:
                raise ValueError("runs must be positive")
        elif key == "seed":
            seed = _parse_int(key, value)
        else:
            raise ValueError(f"unknown option {tokens[-1]!r}")
        tokens.pop()
    game = parse_game_spec(tokens, seed=seed)
    if isinstance(game, RandomConfig):
        return BatchSpec(label=game.label(), random_config=game, runs=runs)
    name, params = game
    label = f"{name}[{' '.join(tokens[1:])}]"
    return BatchSpec(label=label, name=name, params=params, runs=runs)


def parse_bench_config(text: str) -> list[BatchSpec]:
    """Parse a configuration file into batch specs; rejects malformed lines,
    naming the line."""
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
    config = spec.random_config
    if config is not None:  # a random batch
        return gen_random(RandomConfig.parse(config.label(), seed=config.seed + run))
    return gen_family(spec.name, spec.params)


def _timed(samples: list[float], fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``fn``, appending its wall-clock time in ms to ``samples``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    samples.append((time.perf_counter() - start) * 1000.0)
    return result


def bench_batch(spec: BatchSpec, default_runs: int = 1) -> BenchRow:
    """Measure one batch: indices plus mean wall-clock times over its runs."""
    runs = spec.runs if spec.runs is not None else default_runs
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
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
    means = {column: fsum(values) / len(values) for column, values in samples.items()}
    return BenchRow(game=spec.label, runs=runs, **means)


def bench_run(config_text: str, default_runs: int = 1) -> list[BenchRow]:
    """Run every batch in the configuration; failures are logged, not fatal."""
    if default_runs < 1:
        raise ValueError(f"runs must be at least 1, got {default_runs}")
    rows = []
    for spec in parse_bench_config(config_text):
        try:
            rows.append(bench_batch(spec, default_runs))
        except Exception as exc:
            log.error("benchmark batch %s failed: %s", spec.label, exc)
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buffer.getvalue()
