"""The public surface: what ``__all__`` promises exists, and nothing more."""

from __future__ import annotations

import copy
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rabinindex
from rabinindex.cli import main

MODULES = [rabinindex] + [
    importlib.import_module(f"rabinindex.{info.name}")
    for info in pkgutil.iter_modules(rabinindex.__path__)
]

# Names that only tests called, taken out of the package.
REMOVED = {
    "Attractor": "solver",
    "attract": "solver",
    "BudgetExhausted": "reduction",
    "get_anchor": "reduction",
    "all_choice_functions": "oracles",
    # The max-parity baseline and the component tree only it read.
    "rabin_a": "reduction",
    "component_forest": "cycles",
    # abstract_membership(game, 1) answers the same k = 1 question.
    "all_cycles_even": "reduction",
    # An exact run keeps the cycles its YES searches found, not the searches.
    "SearchMemo": "cycles",
    "_what_search_reads": "cycles",
    # tarjan_scc returns the cyclic components as node lists; no caller
    # read the whole decomposition.
    "SccDecomposition": "cycles",
    # verify reads the parity-run nesting tree that the alpha form reads.
    "closed_walk_minima": "cycles",
}


def test_all_names_resolve_and_removed_names_are_gone():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name} is in __all__ but missing"
    for name, home in REMOVED.items():
        for module in (rabinindex, importlib.import_module(f"rabinindex.{home}")):
            assert not hasattr(module, name), f"{module.__name__}.{name} is still there"
    assert not hasattr(rabinindex.Arena, "sorted_successors")
    assert not hasattr(rabinindex.Solution, "region")
    assert not hasattr(rabinindex.reduction.IterationTrace, "empty")
    assert not hasattr(rabinindex.ReductionReport, "to_records")
    assert not hasattr(rabinindex.ReductionReport, "to_text")
    assert "orders" not in inspect.signature(rabinindex.rabin).parameters
    stats = set(inspect.signature(rabinindex.reduction.OracleStats).parameters)
    assert not stats & {"reach_steps", "scc_builds", "reused_queries", "nodes_reused"}
    assert "reused" not in inspect.signature(rabinindex.cycles.SearchBudget).parameters
    # One budget counts the whole exact run, so an abort has one count.
    assert "nodes_expanded" not in inspect.signature(rabinindex.ReductionAborted).parameters


def _printed_in_fresh_interpreter(run: str) -> list[str]:
    """The words ``run`` prints in a fresh interpreter that imports the
    package from this checkout.  ``-S`` skips ``site``, which may load
    modules of its own."""
    src = str(Path(rabinindex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", run], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _loaded_by_import(modules: tuple[str, ...], target: str = "rabinindex") -> list[str]:
    """Which of ``modules`` ``import target`` loads in a fresh interpreter."""
    return _printed_in_fresh_interpreter(
        f"import sys; before = set(sys.modules); import {target}; "
        f"print(*[m for m in {modules!r} if m in set(sys.modules) - before])"
    )


def test_import_loads_no_numeric_tower():
    # The bench means need no statistics module, and with it go decimal,
    # fractions and numbers.
    assert _loaded_by_import(("statistics", "decimal", "fractions", "numbers")) == []


def test_import_loads_no_bench_harness():
    # The CSV harness stays in rabinindex.bench, which the package does not
    # import, so csv loads only with it.
    assert _loaded_by_import(("rabinindex.bench", "csv")) == []


@pytest.mark.parametrize("target", ["rabinindex", "rabinindex.cli", "rabinindex.bench"])
def test_import_loads_no_introspection_machinery(target):
    # The value classes are plain classes, not dataclasses, whose import
    # brings inspect, ast, dis and tokenize; collections.abc stands in for
    # typing, which a bare interpreter would load for a few names.  The
    # harness reports a bad spec by raising, not through logging, which
    # would bring tokenize (through traceback and linecache).
    heavy = (
        "dataclasses", "inspect", "ast", "dis", "typing",
        "tokenize", "traceback", "linecache", "logging",
    )
    assert _loaded_by_import(heavy, target) == []


@pytest.mark.parametrize("target", ["rabinindex", "rabinindex.cli", "rabinindex.bench"])
def test_import_compiles_no_pattern(target):
    # Every pattern of the package is compiled on first use, through the
    # cache of re, so the import pays for none of them.
    held = _printed_in_fresh_interpreter(
        f"import re, sys, {target}; "
        "print(*[f'{name}.{attr}' for name, module in list(sys.modules.items()) "
        "if name.split('.')[0] == 'rabinindex' "
        "for attr, value in vars(module).items() if isinstance(value, re.Pattern)])"
    )
    assert held == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The example reads README's `gen random 100/1/20/100 --seed 7` game,
    # on which the exact search runs out of budget.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "random", "100/1/20/100", "--seed", "7", "-o", "rand.gm"]) == 0
    exec(compile(code, "README.md", "exec"), {})
    assert "final index 37" in capsys.readouterr().out


def _module_state() -> dict[tuple[str, str], tuple]:
    """Each package module's non-dunder globals: the identity of every
    value, and for a dict, list or set also a deep copy and the identities
    of its items, so that a container refilled with equal but new objects
    still reads as changed."""
    state = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            entry: tuple = (id(value),)
            if isinstance(value, (dict, list, set)):
                items = value.values() if isinstance(value, dict) else value
                entry += (copy.deepcopy(value), [id(item) for item in items])
            state[module.__name__, name] = entry
    return state


def test_runs_leave_every_module_global_as_it_was():
    # What a run needs lives as long as the run: no module keeps a table,
    # a cache or a list of marks across calls.
    before = _module_state()
    rabinindex.rabin(rabinindex.gen_jurdzinski(4, 6).arena)
    with pytest.raises(rabinindex.ReductionAborted):
        rabinindex.rabin(rabinindex.gen_jurdzinski(5, 10).arena, budget_limit=10_000)
    game = rabinindex.gen_random(rabinindex.RandomConfig(200, 1, 4, 200, seed=3))
    rabinindex.rabin(game.arena, mode=rabinindex.OracleMode.ABSTRACT)
    rabinindex.abstract_membership(game, 3)
    solution = rabinindex.zielonka_solve(game)
    assert rabinindex.verify_solution(game, solution).ok
    assert rabinindex.parse_pgsolver(rabinindex.write_pgsolver(game)) == game
    assert rabinindex.parse_solution(rabinindex.write_solution(solution), game) == solution
    assert _module_state() == before
