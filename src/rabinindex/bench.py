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
statically compressed index mu(s(c)), the abstract reduction's index
ri_alpha and its fixpoint iteration count, plus wall-clock means (ms) for
static compression, the abstract reduction, and solving the original,
statically compressed, and alpha-reduced games.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass, replace
from statistics import fmean

from .arena import ParityGame, index
from .generators import RandomConfig, check_family, gen_family, gen_random
from .reduction import OracleMode, rabin, static_compress
from .solver import zielonka_solve

log = logging.getLogger(__name__)

BENCH_COLUMNS = (
    "game",
    "mu_c",
    "mu_s_c",
    "ri_alpha",
    "static_ms",
    "alpha_ms",
    "iterations",
    "solve_ms",
    "solve_static_ms",
    "solve_alpha_ms",
    "runs",
)


@dataclass(frozen=True)
class BatchSpec:
    """One parsed configuration line."""

    label: str
    kind: str  # "family" or "random"
    name: str = ""
    params: tuple[int, ...] = ()
    random_config: RandomConfig | None = None
    runs: int | None = None  # None: use the harness-wide default


@dataclass(frozen=True)
class BenchRow:
    game: str
    mu_c: float
    mu_s_c: float
    ri_alpha: float
    static_ms: float
    alpha_ms: float
    iterations: float
    solve_ms: float
    solve_static_ms: float
    solve_alpha_ms: float
    runs: int

    def as_record(self) -> dict[str, str]:
        def num(x: float) -> str:
            if float(x) == int(x):
                return str(int(x))
            return f"{x:.2f}"

        return {
            "game": self.game,
            "mu_c": num(self.mu_c),
            "mu_s_c": num(self.mu_s_c),
            "ri_alpha": num(self.ri_alpha),
            "static_ms": f"{self.static_ms:.3f}",
            "alpha_ms": f"{self.alpha_ms:.3f}",
            "iterations": num(self.iterations),
            "solve_ms": f"{self.solve_ms:.3f}",
            "solve_static_ms": f"{self.solve_static_ms:.3f}",
            "solve_alpha_ms": f"{self.solve_alpha_ms:.3f}",
            "runs": str(self.runs),
        }


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
    if not tokens:
        raise ValueError("no game named")
    kind = tokens[0]
    if kind == "random":
        if len(tokens) != 2:
            raise ValueError("random takes one xx/yy/zz/cc argument")
        config = RandomConfig.parse(tokens[1], seed=seed)
        return BatchSpec(label=config.label(), kind="random", random_config=config, runs=runs)
    try:
        params = tuple(int(tok) for tok in tokens[1:])
    except ValueError:
        raise ValueError(f"bad parameter in {line!r}") from None
    check_family(kind, params)
    label = f"{kind}[{' '.join(tokens[1:])}]"
    return BatchSpec(label=label, kind="family", name=kind, params=params, runs=runs)


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
        return gen_random(replace(config, seed=config.seed + run))
    return gen_family(spec.name, spec.params)


def bench_batch(spec: BatchSpec, default_runs: int = 1) -> BenchRow:
    """Measure one batch: indices plus mean wall-clock times over its runs."""
    runs = spec.runs if spec.runs is not None else default_runs
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    mus, mus_static, ris, iters = [], [], [], []
    t_static, t_alpha, t_solve, t_solve_static, t_solve_alpha = [], [], [], [], []
    for run in range(runs):
        game = _game_for_run(spec, run)
        arena = game.arena
        mus.append(index(arena.colors))

        start = time.perf_counter()
        compressed = static_compress(arena.colors)
        t_static.append((time.perf_counter() - start) * 1000.0)
        mus_static.append(index(compressed))

        start = time.perf_counter()
        reduced, report = rabin(arena, mode=OracleMode.ABSTRACT)
        t_alpha.append((time.perf_counter() - start) * 1000.0)
        ris.append(index(reduced))
        iters.append(report.iteration_count)

        for colors, sink in (
            (arena.colors, t_solve),
            (compressed, t_solve_static),
            (reduced, t_solve_alpha),
        ):
            variant = game.with_colors(colors)
            start = time.perf_counter()
            zielonka_solve(variant)
            sink.append((time.perf_counter() - start) * 1000.0)

    return BenchRow(
        game=spec.label,
        mu_c=fmean(mus),
        mu_s_c=fmean(mus_static),
        ri_alpha=fmean(ris),
        static_ms=fmean(t_static),
        alpha_ms=fmean(t_alpha),
        iterations=fmean(iters),
        solve_ms=fmean(t_solve),
        solve_static_ms=fmean(t_solve_static),
        solve_alpha_ms=fmean(t_solve_alpha),
        runs=runs,
    )


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
