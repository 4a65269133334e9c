"""The public surface: what ``__all__`` promises exists, and nothing more."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import rabinindex

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
    assert "orders" not in inspect.signature(rabinindex.rabin).parameters
