"""Spans and counters recorded around calls into tradequil's layers.

Nothing in the package is edited: :meth:`Tracer.install` rebinds each
traced function in every ``tradequil`` module namespace that holds it, so
calls made through those names (by the CLI, by other layers, or by the
benchmark through the package namespace) open a span, and
:meth:`Tracer.uninstall` puts the originals back.

Layer functions are looked up on the package namespace, so they keep their
layer name if a later change moves them between modules. The ``_numerics``
helpers and ``scipy.optimize.linprog`` are counted per calling module:
``cone_geometry.numerical_rank`` is a rank test made by code in
``cone_geometry.py``.
"""

from __future__ import annotations

import statistics
import sys
import time
import warnings
from collections import Counter
from contextlib import nullcontext

LAYER_FUNCTIONS = {
    "trade_data": ("read_flows_csv", "build_cost_matrices"),
    "equilibrium_solver": ("solve_fixed_point", "is_equilibrium", "excess_demand"),
    "recession": ("degeneracy_report",),
    "consistency": ("certify_consistency", "factor_supply", "exists_ideal"),
    "cone_geometry": ("strictly_positive_solution", "positive_solution_family",
                      "classify_membership", "generating_set"),
}
HELPERS = ("numerical_rank", "require_independent", "nnls_solve", "linprog")
LAYERS = ("trade_data", "cli", "equilibrium_solver", "recession",
          "consistency", "cone_geometry")


class Tracer:
    """In-memory spans ``[name, layer, start, end, parent]`` and counters."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()  # (span name, exception class) -> count
        self.warnings = Counter()  # (layer, warning category) -> count
        self.solve_evals = []  # map evaluations per solve_fixed_point call
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, capture_warnings=True):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        solve = name == "equilibrium_solver.solve_fixed_point"

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            guard = warnings.catch_warnings(record=True) if capture_warnings else nullcontext()
            caught = None
            try:
                with guard as caught:
                    if capture_warnings:
                        warnings.simplefilter("always")
                    span[2] = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span[3] = time.perf_counter()
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                if solve and getattr(exc, "iterations", None) is not None:
                    self.solve_evals.append(exc.iterations)
                raise
            finally:
                stack.pop()
                for record in caught or ():
                    self.warnings[(layer, record.category.__name__)] += 1
            if solve:
                self.solve_evals.append(result.iterations)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, target, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        import tradequil

        modules = [m for key, m in list(sys.modules.items())
                   if key == "tradequil" or key.startswith("tradequil.")]
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                fn = getattr(tradequil, fname, None)
                if fn is not None:
                    self._rebind(fn, self.wrap(f"{layer}.{fname}", fn), modules)
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for helper in HELPERS:
                fn = vars(module).get(helper)
                if fn is not None:
                    wrapper = self.wrap(f"{layer}.{helper}", fn, capture_warnings=False)
                    self._restore.append((module, helper, fn))
                    setattr(module, helper, wrapper)
        cost = tradequil.CostMatrices
        original = cost.__dict__.get("from_dict")
        if isinstance(original, classmethod):
            self._restore.append((cost, "from_dict", original))
            cost.from_dict = classmethod(self.wrap("trade_data.from_dict", original.__func__))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def durations(self, name):
        return [end - start for n, _, start, end, _ in self.spans if n == name]

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def failures(self, name):
        return sum(count for (n, _), count in self.errors.items() if n == name)

    def table(self):
        """Per span name: calls, total inclusive and self seconds, median call."""
        rows = {}
        for (name, _, start, end, _), own in zip(self.spans, self.self_times()):
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            row["durations"].append(end - start)
        for row in rows.values():
            row["median_s"] = statistics.median(row.pop("durations"))
        return rows
