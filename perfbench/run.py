"""Benchmark runner for the rabinindex package.

    python3 perfbench/run.py --workload random-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn

Each workload run happens in its own worker process (``worker.py``) under a
wall-clock cap; a run that hits the cap is killed and recorded as failed.
The program under test is built from ``src/`` of the checkout this file
sits in; without it the runner exits with code 2 and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics, with ``--trace 1`` the per-layer
ones.  For ``--workload all`` each metric name is prefixed with its
workload.  The exit code is 0 only if every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("random-dense", "random-sparse", "families")
CAP_MARGIN_S = 140  # set-up, import probes and the pass in flight at the deadline


def run_capped(command: list[str], cap: float, env: dict[str, str]) -> tuple[int | None, str]:
    """Run ``command`` to completion or until ``cap`` seconds have passed.

    Returns the exit code (None when the cap was hit) and the standard
    output.  The child runs in its own process group, so everything it
    started is killed with it and waited for.
    """
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    ) as child:
        try:
            output, _ = child.communicate(timeout=cap)
            return child.returncode, output
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            output, _ = child.communicate()
            return None, output


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # Imports read and write compiled bytecode under the checkout only, so
    # import_s measures a warm import whatever the caller's environment says;
    # a fixed hash seed keeps any order that depends on string hashes fixed.
    env = dict(
        os.environ,
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    cap = seconds + CAP_MARGIN_S
    code, output = run_capped(command, cap, env)
    lines = output.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if code is None:
        print(f"  FAILED {workload}: run hit the {cap:g} s wall-clock cap")
    else:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  FAILED {workload}: worker exited with code {code} without a result")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rabinindex" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(workload, args.seed, args.seconds, args.trace)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
