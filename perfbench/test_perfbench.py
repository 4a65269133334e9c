"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the counters a pass produces repeat exactly, that the
family answers stay the recorded ones, that a wrong output is caught, that
the runner prints exactly the metrics named in BENCHMARK.json, that a run
over its wall-clock cap is killed, and that the runner refuses to run
without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Original, static, alpha and exact index of every family game; the exact
# search runs out of its 10^6 budget on two of them.
FAMILY_INDICES = [
    ("clique 100", 100, 100, 99, 99),
    ("ladder 300", 2, 2, 2, 2),
    ("jurdzinski 4 6", 10, 10, 9, 5),
    ("jurdzinski 5 10", 12, 12, 11, "aborted"),
    ("recursive_ladder 30", 93, 91, 31, 16),
    ("model_checker_ladder 300", 600, 600, 0, 0),
    ("tower_of_hanoi 5", 2, 2, 1, "aborted"),
]


def _inputs(workload: str, seed: int, labels: set[str] | None = None, count: int | None = None):
    inputs = worker.build_inputs(worker.WORKLOADS[workload], seed)
    if labels is not None:
        inputs = [(label, text) for label, text in inputs if label in labels]
    return inputs[:count]


def _traced_pass(inputs, workload: str) -> worker.PassResult:
    with Tracer() as tracer:
        return worker.run_pass(inputs, worker.WORKLOADS[workload], tracer)


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(worker.WORKLOADS)


def test_counters_repeat_exactly():
    cases = [
        ("random-dense", _inputs("random-dense", 3, count=4)),
        ("random-sparse", _inputs("random-sparse", 3, count=2)),
        ("families", _inputs("families", 0, {"jurdzinski 5 10", "recursive_ladder 30"})),
    ]
    for workload, inputs in cases:
        first = _traced_pass(inputs, workload)
        second = _traced_pass(inputs, workload)
        untraced = worker.run_pass(inputs, worker.WORKLOADS[workload], NullTracer())
        assert not first.failures
        assert first.tracer_counts and first.tracer_counts == second.tracer_counts
        assert first.counters == second.counters == untraced.counters
        assert first.indices == second.indices == untraced.indices
        assert first.counters["arena.index_sum"] > 0


def test_family_answers_and_aborts():
    result = worker.run_pass(_inputs("families", 0), worker.WORKLOADS["families"], NullTracer())
    assert result.indices == FAMILY_INDICES
    assert result.exact_aborts == 2
    assert result.counters["reduction.exact_aborts"] == 2
    assert not result.failures


def test_wrong_output_is_caught(monkeypatch):
    original = worker.zielonka_solve

    def flipped(game):
        solution = original(game)
        if game.arena.colors == flipped.raw_colors:
            solution.winner = (1 - solution.winner[0],) + solution.winner[1:]
        return solution

    (label, text), = _inputs("random-dense", 5, count=1)
    flipped.raw_colors = worker.parse_pgsolver(text).arena.colors
    monkeypatch.setattr(worker, "zielonka_solve", flipped)
    out = worker.PassResult()
    worker.run_game(label, text, worker.WORKLOADS["random-dense"], NullTracer(), out)
    assert any("rejected" in f for f in out.failures)
    assert any("disagree" in f for f in out.failures)


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_runner_prints_the_declared_metrics():
    root = HERE.parent
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run_bench(
            root, "--workload", "random-dense", "--seed", "4", "--seconds", "0.1", "--trace", trace
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_runner_refuses_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(
        tmp_path, "--workload", "families", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_cap_kills_a_run_that_overruns():
    start = time.perf_counter()
    code, _ = run.run_capped([sys.executable, "-c", "import time; time.sleep(60)"], 1, {})
    assert code is None
    assert time.perf_counter() - start < 30
