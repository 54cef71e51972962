"""fleet-transient: fleet Y(phi) queries through the ``repro fleet`` path.

A pass runs one query per seeded fleet -- a lumped N=9 fleet (seeded
coverage, fault-manifestation and repair rates) on a grid that spans
both solver regimes: phi = 0.25 h, where each point is a scalar
uniformization walk, and 5000 h, where it is dense and augmented
expm -- through ``runtime.tasks.plan_fleet_tasks`` and
``runtime.executor.execute_fleet_tasks`` (serial, uncached).  The pass
ends with the flat check on the first fleet's parameters at N=7: the
flat 4**7-state chain from ``FleetSolver(mode="flat").chain()`` solved
with ``ctmc.transient.transient_grid`` on the short horizon must agree
with the lumped N=7 query to 1e-8.  Passes repeat until the run time is
up.  A probe (``bench_common.SpeedProbe``) is sampled just before
every unit run and scales that run's time to the reference machine
speed; a unit's time is the median of its scaled runs, which drops
both the machine's swings and one-off allocator and collector pauses.
Latency samples are the N=9 queries; throughput is every Y of a pass,
flat check included, over the sum of the unit times.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import inputs as bench_inputs
from bench_common import (
    SpeedProbe,
    median,
    metric,
    peak_rss_mb,
    percentile,
    ready_probe,
    setup_metric,
    setup_probe_samples,
    worker_args,
    write_json,
)

SETUP_PROBES = 4
FLAT_TOLERANCE = 1e-8
#: Every unit is timed at least this often; its median run counts.
MIN_PASSES = 3


def main() -> int:
    args = worker_args(__doc__)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    import numpy as np

    import repro.ctmc.transient as transient
    import repro.runtime.executor as executor
    import repro.runtime.tasks as tasks
    from repro.ctmc.config import dispatch_counts
    from repro.gsu.fleet import FleetParameters, FleetSolver

    ready = ready_probe(args.spawned_at)
    if args.setup_only:
        print(json.dumps(ready))
        return 0

    out = args.out
    setup_samples = [ready]
    if not args.trace:
        setup_samples += setup_probe_samples(__file__, SETUP_PROBES)
    spec = (json.loads(args.inputs.read_text()) if args.inputs
            else bench_inputs.fleet_inputs(args.seed))
    write_json(out / "inputs.json", spec)
    short = [float(phi) for phi in spec["short_grid"]]
    grid = short + [float(phi) for phi in spec["long_grid"]]
    fleets = spec["fleets"]

    def query(n, draw, phis):
        params = FleetParameters(n_processes=n, **draw)
        outcomes = executor.execute_fleet_tasks(
            tasks.plan_fleet_tasks(params, phis))
        return [outcome.record["Y"] for outcome in outcomes]

    def flat_check(draw):
        lumped = query(spec["flat_n"], draw, short)
        solver = FleetSolver(
            FleetParameters(n_processes=spec["flat_n"], **draw), mode="flat")
        flat = transient.transient_grid(solver.chain(), np.asarray(short))
        flat_ys = (flat @ solver.operational_rewards()).tolist()
        error = max(abs(a - b) for a, b in zip(flat_ys, lumped))
        flat_errors.append(error)
        if not error <= FLAT_TOLERANCE:
            failures.append(f"flat vs lumped N={spec['flat_n']}: "
                            f"{error:.3g} > {FLAT_TOLERANCE:g}")
        return lumped + flat_ys

    # Units of a pass: one N=9 query per fleet draw, then the flat check.
    units = [(lambda draw=draw: query(spec["lumped_n"], draw, grid))
             for draw in fleets] + [lambda: flat_check(fleets[0])]
    if recorder is not None:
        recorder.calibrate()
    probe = SpeedProbe()
    scaled: list[list[float]] = [[] for _ in units]
    unit_points = [0] * len(units)
    flat_errors: list[float] = []
    failures: list[str] = []
    runs = points = 0
    dispatch_before = dispatch_counts()
    clock = time.perf_counter
    start = clock()
    start_ns = time.perf_counter_ns()
    deadline = start + args.seconds
    passes = 0
    while passes < MIN_PASSES or clock() < deadline:
        for index, unit in enumerate(units):
            if passes >= MIN_PASSES and clock() >= deadline:
                break
            probe.sample()
            t0 = clock()
            ys = unit()
            scaled[index].append(probe.scaled(clock() - t0))
            unit_points[index] = len(ys)
            points += len(ys)
            runs += 1
            outside = sum(1 for y in ys if not 0.0 <= y <= 1.0)
            if outside:
                failures.append(f"unit {index}: {outside} Y outside [0, 1]")
        passes += 1
    wall = clock() - start
    end_ns = time.perf_counter_ns()
    dispatch_after = dispatch_counts()
    unit_seconds = [median(runs) for runs in scaled]
    latencies = [1e3 * seconds for seconds in unit_seconds[:len(fleets)]]

    result = {
        "attempted": runs,
        "failed": len(failures),
        "failures": failures[:20],
        "e2e": {
            "setup_s": setup_metric(setup_samples),
            "points_per_s": metric(
                sum(unit_points) / sum(unit_seconds), "1/s", runs),
            "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
            "lat_p50_ms": metric(median(latencies), "ms", len(latencies)),
            "lat_p95_ms": metric(percentile(latencies, 0.95), "ms",
                                 len(latencies)),
        },
        "notes": {
            "passes": runs / len(units),
            "flat_max_error": max(flat_errors),
            "mean_points_per_s": points / wall,
            "slowdown": probe.slowdown(),
            "query": f"lumped N={spec['lumped_n']} fleet on {len(grid)} phis",
        },
    }
    if recorder is not None:
        import tracing

        recorder.dump(out / "spans.jsonl")
        summary = tracing.summarize(
            recorder.spans, (threading.get_ident(), start_ns, end_ns))
        layers = tracing.layer_metrics(summary, recorder.counters,
                                       recorder.span_cost_ns)
        layers.update(tracing.dispatch_metrics(dispatch_before, dispatch_after))
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
    write_json(out / "result.json", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
