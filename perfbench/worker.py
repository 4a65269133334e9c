"""One capped benchmark run of one workload; started by ``run.py``.

    python3 perfbench/worker.py --workload random-dense --seed 1 --seconds 25 --trace 0

Set-up builds the workload's games from the seed and serializes them to
PGSolver text; the timed part is a closed loop with one thread that sends
each game through the pipeline only after the previous one completed:

    parse -> static compress -> alpha (and exact) reduction -> solve the raw,
    static and alpha colorings -> write and parse each solution -> verify

A *pass* sends every game of the workload through once.  Passes repeat
until ``--seconds`` have elapsed (at least one runs).  A stage time is the
sum over the workload's games of each game's median over the passes, at
reference speed (see ``speed_probe``).  Every output is checked, and the
counters a pass produces must repeat exactly from pass to pass.

With ``--trace 1`` the passes alternate between untraced and traced; the
per-layer numbers come from the traced ones and ``trace.overhead_ratio``
compares the two.  A first, untimed traced pass runs under ``tracemalloc``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from rabinindex import (  # noqa: E402
    OracleMode,
    ParityGame,
    RandomConfig,
    ReductionAborted,
    gen_family,
    gen_random,
    parse_pgsolver,
    parse_solution,
    rabin,
    static_compress,
    verify_solution,
    write_pgsolver,
    write_solution,
    zielonka_solve,
)
from rabinindex.arena import index  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

EXACT_BUDGET = 10**6  # per exact query, the budget of the ROADMAP baseline table
MIN_PROBES = 11  # set-up and import timings per run, at least
# Time of speed_probe() on the reference machine (2-core shared x86 VM at its
# fastest); reported times are scaled to it, see NOTES.md.
REFERENCE_PROBE_S = 2.1e-4
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many samples above it

# The families are Friedmann & Lange's PGSolver suite ("Solving parity games
# in practice", ATVA 2009) at sizes where one pass takes a few seconds.
FAMILIES = (
    ("clique", (100,)),
    ("ladder", (300,)),
    ("jurdzinski", (4, 6)),
    ("jurdzinski", (5, 10)),
    ("recursive_ladder", (30,)),
    ("model_checker_ladder", (300,)),
    ("tower_of_hanoi", (5,)),
)


def _random_games(config: str, count: int, seed: int) -> list[tuple[str, ParityGame]]:
    # Game i of seed s uses generator seed 1000 s + i, so the sets of
    # different seeds never share a game.
    games = []
    for i in range(count):
        game_seed = seed * 1000 + i
        game = gen_random(RandomConfig.parse(config, seed=game_seed))
        games.append((f"random {config} seed={game_seed}", game))
    return games


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[tuple[str, ParityGame]]]
    alpha: bool
    exact: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random-dense", lambda seed: _random_games("100/1/20/100", 24, seed), True, False
        ),
        Workload(
            "random-sparse", lambda seed: _random_games("400/3/5/400", 32, seed), False, False
        ),
        Workload(
            "families",
            lambda seed: [(f"{n} {' '.join(map(str, p))}", gen_family(n, p)) for n, p in FAMILIES],
            True,
            True,
        ),
    )
}


@dataclass
class PassResult:
    games: list[Counter] = field(default_factory=list)  # per game: stage -> seconds
    counters: Counter = field(default_factory=Counter)  # must repeat exactly
    tracer_counts: dict = field(default_factory=dict)  # likewise, traced passes only
    indices: list[tuple] = field(default_factory=list)
    attempted: int = 0
    exact_aborts: int = 0
    failures: list[str] = field(default_factory=list)


def build_inputs(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """Set-up: the workload's games as PGSolver text, the program's only input."""
    return [(label, write_pgsolver(game)) for label, game in workload.build(seed)]


class Stopwatch:
    """Times the segments of one game, at reference speed and as measured.

    A speed probe runs between segments, outside them; each segment is
    scaled by the mean of the probes just before and after it.  Every
    segment also counts toward the game's latency.
    """

    def __init__(self) -> None:
        self.stages: Counter = Counter()
        self._probe = speed_probe()
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self, *keys: str) -> float:
        elapsed = time.perf_counter() - self._start
        probe = speed_probe()
        value = scaled(elapsed, (self._probe + probe) / 2)
        self._probe = probe
        self.stages["probes"] += 1
        self.stages["probe_s"] += probe
        for key in ("latency_s", *keys):
            self.stages[key] += value
            self.stages["measured_" + key] += elapsed
        return value


def run_game(label: str, text: str, workload: Workload, tracer, out: PassResult) -> None:
    """Send one game through the pipeline, adding its times, counts and checks to ``out``."""
    span = tracer.span
    watch = Stopwatch()
    stages = watch.stages
    counters = out.counters

    def check(ok: bool, what: str) -> None:
        out.attempted += 1
        if not ok:
            out.failures.append(f"{label}: {what}")

    watch.start()
    with span("pgsolver.parse"):
        game = parse_pgsolver(text)
    watch.stop("io_s")
    tracer.add("pgsolver.parse_bytes", len(text))
    colors = game.arena.colors

    watch.start()
    static = static_compress(colors)
    # Each variant: (name, coloring, time spent producing the coloring).
    variants = [("raw", colors, 0.0), ("static", static, watch.stop())]
    indices = [index(colors), index(static)]

    if workload.alpha:
        watch.start()
        with span("reduction.alpha"):
            alpha, report = rabin(game.arena, mode=OracleMode.ABSTRACT)
        variants.append(("alpha", alpha, watch.stop("index_alpha_s")))
        indices.append(index(alpha))
        _add_report(counters, report)
        counters["reduction.index_sum_alpha"] += index(alpha)

    if workload.exact:
        watch.start()
        exact_index = None
        try:
            with span("reduction.exact"):
                exact, report = rabin(game.arena, mode=OracleMode.EXACT, budget_limit=EXACT_BUDGET)
            exact_index = index(exact)
        except ReductionAborted as exc:
            report = exc.report
            out.exact_aborts += 1
            counters["reduction.exact_aborts"] += 1
        watch.stop("index_exact_s")
        out.attempted += 1
        _add_report(counters, report)
        indices.append("aborted" if exact_index is None else exact_index)
        if exact_index is not None:
            counters["reduction.index_sum_exact"] += exact_index

    counters["arena.index_sum"] += indices[0]
    counters["reduction.index_sum_static"] += indices[1]
    reduced = [i for i in indices if isinstance(i, int)]
    check(reduced == sorted(reduced, reverse=True), f"index order violated: {indices}")
    out.indices.append((label, *indices))

    winners = []
    for name, coloring, produce in variants:
        watch.start()
        variant = game if name == "raw" else game.with_colors(coloring)
        with span(f"solver.solve_{name}"):
            solution = zielonka_solve(variant)
        elapsed = watch.stop()
        if name == "raw":
            stages["solve_s"] += elapsed
        else:
            stages[f"solve_pre_{name}_s"] += produce + elapsed
        counters["solver.color_levels"] += len(set(coloring))
        winners.append(solution.winner)

        watch.start()
        with span("pgsolver.write_solution"):
            written = write_solution(solution)
        with span("pgsolver.parse_solution"):
            parsed = parse_solution(written, variant)
        watch.stop("io_s")
        tracer.add("pgsolver.write_solution_bytes", len(written))
        tracer.add("pgsolver.parse_solution_bytes", len(written))
        check(
            (parsed.winner, parsed.strategy0, parsed.strategy1)
            == (solution.winner, solution.strategy0, solution.strategy1),
            f"{name} solution write/parse round trip is not the identity",
        )

        watch.start()
        with span("solver.verify"):
            verdict = verify_solution(variant, parsed)
        watch.stop("verify_s")
        check(bool(verdict), f"{name} solution rejected: {verdict.reason}")

    check(all(w == winners[0] for w in winners), "colorings disagree on the winners")
    out.games.append(stages)


def _add_report(counters: Counter, report) -> None:
    stats = report.stats
    counters["reduction.abstract_queries"] += stats.abstract_queries
    counters["reduction.exact_queries"] += stats.exact_queries
    counters["reduction.max_color_checks"] += stats.max_color_checks
    counters["reduction.nodes_expanded"] += stats.nodes_expanded
    counters["reduction.iterations"] += report.iteration_count


def speed_probe() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast the machine runs now.

    Other tenants of a shared machine slow everything down by up to 1.5x,
    for a fraction of a second up to a minute and more; a time divided by
    the probe time taken next to it no longer depends on when it was
    measured.  The loop does the set, list, tuple and dict work the package
    does, and none of the package's own code.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        seen, order, where = set(), [], {}
        for i in range(600):
            v = (i * 7919) % 613
            if v not in seen:
                seen.add(v)
                order.append((v, i))
                where[v] = len(order)
        order.sort()
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(inputs: list[tuple[str, str]], workload: Workload, tracer) -> PassResult:
    out = PassResult()
    for label, text in inputs:
        run_game(label, text, workload, tracer, out)
    out.tracer_counts = dict(tracer.counts)
    return out


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while speed_probe() took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def time_setup(workload: Workload, seed: int) -> tuple[float, list[tuple[str, str]]]:
    """Set-up time at reference speed, and the inputs it built."""
    before = speed_probe()
    start = time.perf_counter()
    inputs = build_inputs(workload, seed)
    elapsed = time.perf_counter() - start
    return scaled(elapsed, (before + speed_probe()) / 2), inputs


def time_import() -> float:
    """Time of ``import rabinindex`` in a fresh interpreter, at reference speed."""
    probe = (
        "import time; t = time.perf_counter(); import rabinindex; "
        "print(time.perf_counter() - t)"
    )
    before = speed_probe()
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return scaled(float(done.stdout), (before + speed_probe()) / 2)


def tail(latencies: list[float]) -> tuple[str, float] | None:
    """Highest of a few percentiles that has ``TAIL_MIN_BEYOND`` samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for name, share in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9)):
        if n * (1 - share) >= TAIL_MIN_BEYOND:
            return name, ordered[min(n - 1, int(n * share))]
    return None


def _per_game(passes: list[PassResult], stage: str) -> list[float]:
    """Each game's time for ``stage``, the median over the passes."""
    return [
        statistics.median(p.games[g][stage] for p in passes) for g in range(len(passes[0].games))
    ]


def end_to_end(passes, setup_s, import_s) -> tuple[dict, list[str]]:
    """Metrics of the untraced passes: (contract metrics, extra printed lines).

    Times are at reference speed; stage times are sums over the workload's
    games.  The extra lines give the measured sums beside them.
    """
    latencies = _per_game(passes, "latency_s")
    samples = [g["latency_s"] for p in passes for g in p.games]
    metrics = {
        "setup_s": (setup_s, "s"),
        "import_s": (import_s, "s"),
        "games_per_s": (len(latencies) / sum(latencies), "1/s"),
        "game_p50_s": (statistics.median(samples), "s"),
    }
    for stage in ("solve_s", "solve_pre_static_s", "verify_s", "io_s"):
        metrics[stage] = (sum(_per_game(passes, stage)), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    extra = []
    for stage in ("index_alpha_s", "index_exact_s", "solve_pre_alpha_s"):
        if stage in passes[0].games[0]:
            extra.append(_line(stage, sum(_per_game(passes, stage)), "s"))
    high = tail(samples)
    if high is not None:
        note = f"{high[0]} of {len(samples)} game runs"
        extra.append(_line("game_tail_s", high[1], "s", note))
    probes = sum(g["probes"] for p in passes for g in p.games)
    probe_s = sum(g["probe_s"] for p in passes for g in p.games) / probes
    note = "of reference speed, mean over the run"
    extra.append(_line("machine_speed", REFERENCE_PROBE_S / probe_s, "ratio", note))
    for stage in ("latency_s", "verify_s", "io_s"):
        measured = sum(_per_game(passes, "measured_" + stage))
        extra.append(_line(f"measured_{stage}", measured, "s", "as measured, not scaled"))
    return metrics, extra


def _latency(result: PassResult) -> float:
    return sum(g["latency_s"] for g in result.games)


def per_layer(traced: list[tuple[PassResult, Tracer]], untraced, reference, peak_mb):
    """Metrics of the traced passes, counts from the reference pass."""
    counts = reference.counters + Counter(reference.tracer_counts)
    metrics: dict[str, tuple[float, str]] = {}

    def timed(name: str, values) -> None:
        metrics[name] = (statistics.median(values), "s")

    for caller in ("reduction", "cycles", "solver"):
        key = f"cycles.tarjan.{caller}"
        metrics[key + "_calls"] = (counts[key + "_calls"], "count")
        timed(key + "_s", [t.times[key] for _, t in traced])
        metrics[key + "_nodes"] = (counts[key + "_nodes"], "count")
    queries = counts["reduction.abstract_queries"]
    hits = 1 - counts["cycles.tarjan.reduction_calls"] / queries if queries else 0.0
    metrics["reduction.scc_cache_hit_ratio"] = (hits, "ratio")
    for name in (
        "reduction.abstract_queries",
        "reduction.iterations",
        "reduction.max_color_checks",
        "reduction.exact_queries",
        "reduction.nodes_expanded",
        "reduction.exact_aborts",
        "cycles.simple_cycle_calls",
        "cycles.simple_cycle_yes",
        "cycles.simple_cycle_no",
        "cycles.simple_cycle_exhausted",
        "cycles.max_color_calls",
        "solver.color_levels",
        "arena.index_sum",
        "reduction.index_sum_static",
        "reduction.index_sum_alpha",
        "reduction.index_sum_exact",
    ):
        metrics[name] = (counts[name], "count")
    timed("reduction.alpha_self_s", [t.self_times["reduction.alpha"] for _, t in traced])
    timed("reduction.exact_self_s", [t.self_times["reduction.exact"] for _, t in traced])
    timed("cycles.simple_cycle_s", [t.times["cycles.simple_cycle"] for _, t in traced])
    timed("cycles.max_color_s", [t.times["cycles.max_color"] for _, t in traced])
    for coloring in ("raw", "static", "alpha"):
        key = f"solver.solve_{coloring}"
        timed(key + "_s", [t.times[key] for _, t in traced])
    timed("solver.verify_self_s", [t.self_times["solver.verify"] for _, t in traced])
    for op in ("parse", "write_solution", "parse_solution"):
        key = f"pgsolver.{op}"
        metrics[key + "_calls"] = (counts[key + "_calls"], "count")
        timed(key + "_s", [t.times[key] for _, t in traced])
        metrics[key + "_bytes"] = (counts[key + "_bytes"], "B")
    timed("arena.with_colors_s", [t.times["arena.with_colors"] for _, t in traced])
    metrics["mem.traced_peak_mb"] = (peak_mb, "MB")
    # Pipeline time at reference speed, so that machine load does not enter the ratio.
    ratio = statistics.median(_latency(p) for p, _ in traced) / statistics.median(
        _latency(p) for p in untraced
    )
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    return f"  {name:<32} {shown} {unit:<6} {note}".rstrip()


def _check_repeats(reference: PassResult, others: list[PassResult]) -> list[str]:
    """Counters and indices are fixed by the inputs: every pass must repeat them."""
    for other in others:
        if (other.counters, other.indices) != (reference.counters, reference.indices):
            return ["counters or indices differ between passes of the same inputs"]
        if other.tracer_counts and other.tracer_counts != reference.tracer_counts:
            return ["traced counters differ between passes of the same inputs"]
    return []


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    setup_s, inputs = time_setup(workload, seed)
    setup_times, import_times = [setup_s], []

    def probe() -> None:
        # Set-up and import are timed between passes, spread over the run,
        # so that one burst of load on the machine cannot decide them.
        seconds_, again = time_setup(workload, seed)
        if again != inputs:
            raise RuntimeError("set-up is not deterministic for a fixed seed")
        setup_times.append(seconds_)
        import_times.append(time_import())

    if not trace:
        time_import()  # warm-up: a fresh checkout compiles its bytecode here
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, Tracer]] = []
    reference = None
    peak_mb = 0.0
    if trace:
        # Untimed first pass: memory under tracemalloc, and the reference counts.
        tracemalloc.start()
        with Tracer() as tracer:
            reference = run_pass(inputs, workload, tracer)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(untraced) > len(traced):
            with Tracer() as tracer:
                traced.append((run_pass(inputs, workload, tracer), tracer))
        else:
            if not trace:
                probe()
            untraced.append(run_pass(inputs, workload, NullTracer()))
        if time.perf_counter() >= deadline and (traced or not trace):
            break
    while not trace and len(import_times) < MIN_PROBES:
        probe()

    timed = untraced + [p for p, _ in traced]
    checked = timed + ([reference] if trace else [])
    reference = reference or timed[0]
    failures = [f for p in checked for f in p.failures]
    failures += _check_repeats(reference, timed)
    attempted = sum(p.attempted for p in checked)
    aborts = sum(p.exact_aborts for p in checked)
    if trace:
        metrics = per_layer(traced, untraced, reference, peak_mb)
        extra = []
    else:
        metrics, extra = end_to_end(
            untraced, statistics.median(setup_times), statistics.median(import_times)
        )

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    print(
        f"  {len(timed)} timed passes of {len(inputs)} games; "
        f"index digest {_digest(reference.indices)}"
    )
    for name, (value, unit) in metrics.items():
        print(_line(name, value, unit))
    for line in extra:
        print(line)
    print(
        _line(
            "fail_rate",
            (len(failures) + aborts) / attempted,
            "ratio",
            f"{len(failures) + aborts} of {attempted} operations: "
            f"{aborts} exact aborts, {len(failures)} check failures",
        )
    )
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not failures else 1


def _digest(indices: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(indices).encode()).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
