"""Per-layer tracing from outside the program.

A ``Tracer`` replaces the module-level functions of the six specreg
modules with timing wrappers, in the defining module and in every module
that imported the name directly (``cli`` and ``bench`` use ``from .x import
y``).  Spans nest on a stack: a layer's self time is its span minus the
spans of the wrapped calls it made.  Only aggregates are kept: per name the
call count and the summed self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("core", "smoothers", "penalty", "selection", "bench", "cli")

# Private penalty functions behind two per-layer metrics: a span and a call
# counter.  A later change may rename them; their metrics then read null.
_MU_SOLVE = ("_solve_mu_rows", "penalty.mu_solve")
_CRAMER_EVALS = ("_cramer_rowsum", "penalty.cramer_evals")


class Tracer:
    """Install with ``start()``, remove with ``stop()``.  ``calls`` and
    ``self_s`` are keyed by span name, ``counts`` by counter name."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"specreg.{name}") for name in LAYERS}
        self.package = importlib.import_module("specreg")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {"penalty.table_elems": 0}
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.counts):
            for key in table:
                table[key] = 0

    def _private(self, name: str):
        func = getattr(self.modules["penalty"], name, None)
        return func if inspect.isfunction(func) else None

    def start(self) -> None:
        spans = {}  # function -> span name
        for layer, module in self.modules.items():
            for name in ["main"] if layer == "cli" else module.__all__:
                func = getattr(module, name)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    spans[func] = f"{layer}.{name}"
        mu_solve = self._private(_MU_SOLVE[0])
        if mu_solve is not None:
            spans[mu_solve] = _MU_SOLVE[1]
        wrappers = {func: self._span(func, span) for func, span in spans.items()}
        for span in spans.values():
            self.calls.setdefault(span, 0)
            self.self_s.setdefault(span, 0.0)
        cramer = self._private(_CRAMER_EVALS[0])
        if cramer is not None:
            wrappers[cramer] = self._counter(cramer, _CRAMER_EVALS[1])
            self.counts.setdefault(_CRAMER_EVALS[1], 0)
        # rebind every module-level name that refers to a wrapped function
        for module in [*self.modules.values(), self.package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def stop(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _span(self, func, span: str):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        table_elems = span == "penalty.build_penalty_table"
        signature = inspect.signature(func) if table_elems else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if table_elems:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts["penalty.table_elems"] += (
                    len(bound["grid"]) * bound["spectrum"].effective_rank)
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[span] += 1
                self_s[span] += elapsed - children

        return wrapper

    def _counter(self, func, counter: str):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper
