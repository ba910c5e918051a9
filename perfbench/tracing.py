"""Outside-in layer tracing for the traced benchmark run.

The benchmark never edits the program: it replaces chosen public
functions of each layer with thin wrappers, rebinding every name that
refers to the original in every ``hyperinv`` module (and in dict-valued
module attributes such as ``generators.FILTERS``), so that calls made
between layers are seen too.  Each wrapped call is a span; its self time
is its duration minus the durations of the spans it directly caused.
Only aggregates (calls, inclusive time, self time) are kept, so a span
costs two clock reads and a few list operations.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
from time import perf_counter

# (module, function) pairs traced as spans, named "<module>.<function>".
SPANS = (
    ("hypergraph", "maximal_independent_sets"),
    ("hypergraph", "minimal_vertex_covers"),
    ("hypergraph", "find_cycle"),
    ("hypergraph", "three_cycle_edge_condition"),
    ("complexes", "independence_complex"),
    ("complexes", "vertex_decomposable"),
    ("matchings", "matching_invariants"),
    ("matchings", "maximal_matchings"),
    ("bouquets", "bouquet_invariants"),
    ("bouquets", "cover_from_bouquets"),
    ("decomposition", "theorem_main_report"),
    ("decomposition", "is_codismantlable"),
    ("decomposition", "is_shedding_vertex"),
    ("decomposition", "is_codominated"),
    ("homological", "betti_table"),
    ("homological", "alexander_dual"),
    ("homological", "complex_to_hypergraph"),
    ("suites", "run_suite"),
    ("cli", "cmd_invariants"),
)

# Generator functions: every resumption of the iterator is one span.
GENERATOR_SPANS = (("generators", "stream"),)


class Tracer:
    """Aggregated span statistics: name -> [calls, inclusive_s, self_s]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []  # child time of each open span
        self.counters: dict[str, int] = {}

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _span(self, entry: list, fn, args, kwargs):
        """Call ``fn`` as one span of ``entry``, charging its time to the parent span."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            child = stack.pop()
            entry[1] += d
            entry[2] += d - child
            if stack:
                stack[-1] += d

    def wrap(self, name: str, fn, on_call=None):
        entry = self._entry(name)
        span = self._span

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            entry[0] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            return span(entry, fn, args, kwargs)

        return timed

    def wrap_generator(self, name: str, fn):
        entry = self._entry(name)
        span = self._span
        done = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry[0] += 1
            it = iter(fn(*args, **kwargs))
            while (item := span(entry, next, (it, done), {})) is not done:
                yield item

        return traced


def _hyperinv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hyperinv" or name.startswith("hyperinv."))]


def _rebind(orig, wrapped) -> None:
    """Point every reference to ``orig`` inside the package at ``wrapped``."""
    for mod in _hyperinv_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapped


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported ``hyperinv``."""
    import hyperinv.homological as homological
    import hyperinv.suites as suites

    counters = tracer.counters
    counters["homological.hochster_subsets"] = 0

    def count_subsets(h, *args, **kwargs):
        counters["homological.hochster_subsets"] += (1 << h.n) - 1

    for mod_name, fn_name in SPANS:
        mod = sys.modules[f"hyperinv.{mod_name}"]
        orig = getattr(mod, fn_name)
        on_call = count_subsets if orig is homological.betti_table else None
        _rebind(orig, tracer.wrap(f"{mod_name}.{fn_name}", orig, on_call))
    for mod_name, fn_name in GENERATOR_SPANS:
        mod = sys.modules[f"hyperinv.{mod_name}"]
        orig = getattr(mod, fn_name)
        _rebind(orig, tracer.wrap_generator(f"{mod_name}.{fn_name}", orig))
    # The thirteen suite checks are private; trace them through the registry.
    for key, suite in list(suites.SUITES.items()):
        suites.SUITES[key] = dataclasses.replace(
            suite, check=tracer.wrap("suites.check", suite.check))


def layer_values(pairs: list) -> dict:
    """Per-layer metric values from (untraced, traced) pass pairs: spans and
    counters of the first traced pass, walls and overhead over all pairs."""
    plain, traced = pairs[0]
    values = {}
    for name, (calls, total, self_s) in traced["spans"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.total_s"] = total
    values.update(traced["counters"])
    suites = traced["info"].get("suites", [])
    values["suites.instances_tested"] = sum(s["instances"] for s in suites)
    values["suites.hypotheses_held"] = sum(s["hypotheses_held"] for s in suites)
    values["trace.wall_s"] = statistics.median(t["wall_s"] for _, t in pairs)
    values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p, _ in pairs)
    # in reference seconds, so that a swing in machine speed between the
    # two passes is not read as overhead
    values["trace.overhead_ratio"] = statistics.median(t["ref_wall_s"] / p["ref_wall_s"]
                                                       for p, t in pairs)
    return values
