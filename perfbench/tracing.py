"""Layer spans recorded from the benchmark's own files.

The program has no tracing of its own, so the traced run wraps the
public entry point of each layer *at the binding its caller uses*
(``from x import y`` copies ``y`` into the importing module, so the
wrapper must replace the importing module's name, not the defining
one).  Spans are kept in memory as ``(id, parent, name, thread, start,
end)`` tuples with ``perf_counter_ns`` times and written as JSON lines
when the run ends.  The parent is the innermost open span of the same
``contextvars`` context, so spans opened by concurrent asyncio tasks do
not nest into each other; work handed to a thread pool starts a new
root span in that thread.

A span's name starts with its layer: ``san``, ``gsu``, ``ctmc``,
``runtime`` or ``serve``.  A layer's self time is the time its spans
are open minus the part of that time their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("san", "gsu", "ctmc", "runtime", "serve")

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self.span_cost_ns = 0.0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, name, namer=None, on_result=None):
        """A span-recording wrapper of ``fn``.

        ``namer(args, before)`` may rename the span after the call from
        state captured by ``before = namer(args, None)`` ahead of it;
        ``on_result(result)`` sees each return value (for counters).
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _current.get()
                sid = next(ids)
                token = _current.set(sid)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    _current.reset(token)
                    spans.append((sid, parent, name, get_ident(), start, end))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = namer(args, None) if namer is not None else None
            parent = _current.get()
            sid = next(ids)
            token = _current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _current.reset(token)
                label = namer(args, before) if namer is not None else name
                spans.append((sid, parent, label, get_ident(), start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, target: str, name: str, **options) -> None:
        """Replace ``module[:Class].attr`` with a span-recording wrapper."""
        owner, attr = _resolve(target)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def count_calls(self, target: str, counter: str) -> None:
        """Replace ``module.attr`` with a wrapper that only counts calls."""
        owner, attr = _resolve(target)
        fn = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counting)

    def calibrate(self, calls: int = 20000) -> float:
        """Nanoseconds one span adds to a call (recorded on this object)."""
        def noop():
            return None

        wrapped = self.wrap(noop, "bench.calibrate")
        clock = time.perf_counter_ns
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - start
        del self.spans[-calls:]
        self.span_cost_ns = max(traced - bare, 0) / calls
        return self.span_cost_ns

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans as JSON lines, then one line of counters."""
        with open(path, "w") as handle:
            for sid, parent, name, thread, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "thread": thread, "start_ns": start, "end_ns": end}
                ) + "\n")
            handle.write(json.dumps({
                "counters": dict(self.counters),
                "span_cost_ns": self.span_cost_ns,
            }) + "\n")


def load(path) -> tuple[list[tuple], dict, float]:
    """Read a file written by :meth:`Recorder.dump`."""
    spans = []
    counters: dict = {}
    span_cost = 0.0
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
                span_cost = record["span_cost_ns"]
                continue
            spans.append((record["id"], record["parent"], record["name"],
                          record["thread"], record["start_ns"],
                          record["end_ns"]))
    return spans, counters, span_cost


def _resolve(target: str):
    module_name, _, attr = target.rpartition(".")
    if ":" in module_name:
        module_name, _, class_name = module_name.partition(":")
        return getattr(importlib.import_module(module_name), class_name), attr
    return importlib.import_module(module_name), attr


# ----------------------------------------------------------------------
# What each layer's spans wrap
# ----------------------------------------------------------------------
def _template_namer(args, before):
    """``TemplateCache.compiled`` is a compile, re-stamp or fallback,
    told apart by which of the cache's own counters the call moved."""
    stats = args[0].stats
    now = (stats.compiles, stats.fallbacks)
    if before is None:
        return now
    if now[0] > before[0]:
        return "gsu.templates.compile"
    if now[1] > before[1]:
        return "gsu.templates.fallback"
    return "gsu.templates.restamp"


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer entry point the workloads reach."""
    def count_chain(chain):
        recorder.counters["fleet.states"] += chain.num_states
        recorder.counters["fleet.nnz"] += chain.generator.nnz

    patch = recorder.patch
    # runtime: campaign planner and executors.
    patch("repro.runtime.campaign.run_campaign", "runtime.run_campaign")
    patch("repro.runtime.campaign.plan_campaign", "runtime.plan")
    patch("repro.runtime.campaign.execute_tasks", "runtime.execute")
    patch("repro.runtime.tasks.plan_fleet_tasks", "runtime.plan")
    patch("repro.runtime.executor.execute_fleet_tasks", "runtime.execute")
    # gsu: templates, batched measures, aggregation, fleet solver.
    patch("repro.runtime.executor.evaluate_batch", "gsu.evaluate_batch")
    patch("repro.gsu.measures:ConstituentSolver.batch", "gsu.batch")
    patch("repro.gsu.performability.aggregate_breakdown", "gsu.aggregate")
    patch("repro.gsu.templates:TemplateCache.compiled", "gsu.templates",
          namer=_template_namer)
    patch("repro.gsu.fleet:FleetSolver.batch", "gsu.fleet_batch")
    # san: symbolic reachability and fleet assembly.
    patch("repro.gsu.templates.compile_parametric", "san.compile_parametric")
    for builder in ("fleet_chain", "fleet_lumped_chain",
                    "fleet_grouped_lumped_chain"):
        patch(f"repro.gsu.fleet.{builder}", "san.fleet_assemble",
              on_result=count_chain)
    # ctmc: the solver entry points the reward layer and fleet call.
    patch("repro.san.rewards.transient_accumulated_grid", "ctmc.fused_grid")
    patch("repro.san.rewards.transient_grid", "ctmc.transient_grid")
    patch("repro.ctmc.transient.transient_grid", "ctmc.transient_grid")
    patch("repro.san.rewards.steady_state_distribution", "ctmc.steady_state")
    patch("repro.san.rewards.transient_distribution", "ctmc.transient_point")
    patch("repro.gsu.fleet.transient_distribution", "ctmc.transient_point")
    patch("repro.gsu.fleet.accumulated_reward", "ctmc.accumulated_point")
    recorder.count_calls("repro.ctmc.config.limits", "ctmc.limits_calls")
    if serve:
        patch("repro.serve.service.evaluate_batch", "gsu.evaluate_batch")
        patch("repro.serve.service.default_solve_fn", "serve.solve")
        patch("repro.serve.service:PerformabilityService._handle_connection",
              "serve.http")
        patch("repro.serve.service:PerformabilityService.handle_evaluate",
              "serve.evaluate")
        patch("repro.serve.batcher:CoalescingBatcher.evaluate",
              "serve.batcher")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_ns(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, window=None) -> dict:
    """Per-name totals, per-layer self times and uncovered wall share.

    Totals and self times cover every span, set-up included (template
    compiles happen there).  ``window`` is ``(thread, start_ns,
    end_ns)``: the measured interval on the thread that drove it; the
    uncovered share is the part of it no root span on that thread
    covers, and the span count (for the overhead estimate) is of spans
    inside it.  Without a window the interval runs from the first
    span's start to the last one's end on the thread with the most
    root-span time.
    """
    children = defaultdict(list)
    for sid, parent, _name, _thread, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    roots_by_thread = defaultdict(list)
    for sid, parent, name, thread, start, end in spans:
        duration = end - start
        totals[name] += duration / 1e9
        counts[name] += 1
        own = duration - _union_ns(children.get(sid, ()))
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own / 1e9
        if parent is None:
            roots_by_thread[thread].append((start, end))
    if window is not None:
        thread, lo, hi = window
        candidates = (roots_by_thread.get(thread, []) if thread is not None
                      else [r for rs in roots_by_thread.values() for r in rs])
        roots = [(max(start, lo), min(end, hi))
                 for start, end in candidates if end > lo and start < hi]
    elif roots_by_thread:
        thread, roots = max(roots_by_thread.items(),
                            key=lambda item: _union_ns(item[1]))
        lo = min(start for start, _ in roots)
        hi = max(end for _, end in roots)
    else:
        roots, lo, hi = [], 0, 0
    wall = max(hi - lo, 1)
    return {
        "totals_s": dict(totals),
        "counts": dict(counts),
        "layer_self_s": layer_self,
        "uncovered_frac": 1.0 - _union_ns(roots) / wall,
        "wall_s": wall / 1e9,
        "spans": sum(1 for s in spans if s[4] >= lo and s[5] <= hi),
    }


#: Backend labels ``repro.ctmc.config.record_dispatch`` is called with.
DISPATCH_BACKENDS = (
    "dense-expm", "augmented-expm", "spectral", "uniformization",
    "streaming-uniformization", "krylov", "augmented-krylov", "quadrature",
    "steady-direct", "steady-iterative",
)


def dispatch_metrics(before: dict, after: dict) -> dict:
    """Per-backend dispatch counts between two ``dispatch_counts()``."""
    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in set(after) | set(before)}
    metrics = {f"ctmc.dispatch.{name}": (delta.pop(name, 0), "count")
               for name in DISPATCH_BACKENDS}
    metrics["ctmc.dispatch.other"] = (sum(delta.values()), "count")
    return metrics


def layer_metrics(summary: dict, counters: dict, span_cost_ns: float) -> dict:
    """The span-derived per-layer metrics every workload reports."""
    totals = summary["totals_s"]
    counts = summary["counts"]
    metrics = {
        "templates.compile_s": (totals.get("gsu.templates.compile", 0.0), "s"),
        "templates.compiles": (counts.get("gsu.templates.compile", 0), "count"),
        "templates.restamp_s": (totals.get("gsu.templates.restamp", 0.0), "s"),
        "templates.restamps": (counts.get("gsu.templates.restamp", 0), "count"),
        "templates.fallbacks": (
            counts.get("gsu.templates.fallback", 0), "count"),
        "ctmc.fused_grid_s": (totals.get("ctmc.fused_grid", 0.0), "s"),
        "ctmc.transient_grid_s": (totals.get("ctmc.transient_grid", 0.0), "s"),
        "ctmc.steady_state_s": (totals.get("ctmc.steady_state", 0.0), "s"),
        "ctmc.transient_point_s": (
            totals.get("ctmc.transient_point", 0.0), "s"),
        "ctmc.accumulated_point_s": (
            totals.get("ctmc.accumulated_point", 0.0), "s"),
        "ctmc.limits_calls": (counters.get("ctmc.limits_calls", 0), "count"),
        "gsu.batch_s": (totals.get("gsu.batch", 0.0), "s"),
        "gsu.aggregate_s": (totals.get("gsu.aggregate", 0.0), "s"),
        "runtime.plan_s": (totals.get("runtime.plan", 0.0), "s"),
        "runtime.execute_s": (totals.get("runtime.execute", 0.0), "s"),
        "runtime.self_s": (summary["layer_self_s"]["runtime"], "s"),
        "fleet.assemble_s": (totals.get("san.fleet_assemble", 0.0), "s"),
        "fleet.states": (counters.get("fleet.states", 0), "count"),
        "fleet.nnz": (counters.get("fleet.nnz", 0), "count"),
        "trace.uncovered_frac": (summary["uncovered_frac"], "ratio"),
        "trace.overhead_frac": (
            summary["spans"] * span_cost_ns / 1e9 / summary["wall_s"],
            "ratio"),
        "trace.spans": (summary["spans"], "count"),
    }
    for layer in ("san", "gsu", "ctmc", "serve"):
        metrics[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s")
    return metrics
