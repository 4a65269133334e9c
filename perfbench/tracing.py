"""Spans and counters for the traced benchmark run.

Layers are the package's modules.  Calls that cross a layer boundary
inside the package are observed by rebinding the public name in the
calling module's namespace (``reduction.tarjan_scc``, ``solver.tarjan_scc``
and so on), so the package itself stays untouched; the calls the benchmark
makes itself are wrapped in :meth:`Tracer.span`.

Every span records its inclusive time under its name and its self time
(inclusive time minus the time covered by spans opened inside it).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

from rabinindex import arena, cycles, reduction, solver
from rabinindex.cycles import CycleAnswer

TARJAN_CALLERS = {"reduction": reduction, "cycles": cycles, "solver": solver}


class NullTracer:
    """Stand-in used by untraced passes: spans and counters cost nothing."""

    counts: dict[str, int] = {}  # never written

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Accumulates span times and counters over its lifetime.

    Use as a context manager: entering installs the rebinding wrappers,
    leaving restores the original names.
    """

    def __init__(self) -> None:
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.times: defaultdict[str, float] = defaultdict(float)
        self.self_times: defaultdict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time covered inside each open span
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        covered = self._open.pop()
        self.times[name] += elapsed
        self.self_times[name] += elapsed - covered
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.counts[name + "_calls"] += 1
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def _wrap(
        self, name: str, fn: Callable, before: Callable | None, after: Callable | None
    ) -> Callable:
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, after))

    def __enter__(self) -> "Tracer":
        for caller, module in TARJAN_CALLERS.items():
            name = f"cycles.tarjan.{caller}"

            def count_nodes(successors, allowed=None, _name=name):
                # Tarjan visits every node of the induced subgraph once.
                self.counts[_name + "_nodes"] += (
                    len(successors) if allowed is None else sum(allowed)
                )

            self._patch(module, "tarjan_scc", name, before=count_nodes)

        def count_answer(answer: CycleAnswer) -> None:
            self.counts[f"cycles.simple_cycle_{answer.value}"] += 1

        self._patch(
            reduction,
            "simple_cycle_through_with_color",
            "cycles.simple_cycle",
            after=count_answer,
        )
        self._patch(reduction, "simple_cycle_with_max_color", "cycles.max_color")
        self._patch(arena.Arena, "with_colors", "arena.with_colors")
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
