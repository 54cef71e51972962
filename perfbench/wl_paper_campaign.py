"""paper-campaign: the analyst's batch job, one Y(phi) curve per query.

A pass runs the FIG9-FIG12 campaigns at phi step 100 curve by curve,
then the seed's design-space draws (one 101-point curve each), every
curve through ``repro.runtime.campaign.run_campaign`` -- serial and
uncached, the CLI default -- after ``warm_templates()``.  Passes repeat
until the run time is up.  The machine's speed swings by up to 1.8x
within seconds, so a probe (``bench_common.SpeedProbe``) is sampled
just before every curve and that curve run's time is scaled to the
reference machine speed by it.  A curve's latency is the median of its
scaled runs; throughput is a pass's points over the sum of those
latencies.  Every Y is checked against the committed reference (made
at the commit that introduced the benchmark) and the paper's
optimum-phi claims are checked on the first pass.
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
#: Every curve is timed at least this often; its median run counts.
MIN_PASSES = 3


def _optimum(phis, ys, step):
    """argmax of Y on the paper's own grid (multiples of ``step``)."""
    on_grid = [(y, phi) for phi, y in zip(phis, ys)
               if abs(phi / step - round(phi / step)) < 1e-9]
    y, phi = max(on_grid)
    return phi, y


def paper_claims(curves: dict) -> list[tuple[str, bool]]:
    """The paper's optimum claims (FIG9-12) on the step-100 curves.

    ``curves[(figure, index)] = (phis, ys)``.  Optima are taken on each
    figure's paper grid, which the step-100 grid contains.
    """
    def opt(figure, index, step=1000.0):
        phis, ys = curves[(figure, index)]
        return _optimum(phis, ys, step)

    fig11 = [opt("FIG11", i) for i in range(3)]
    c20 = opt("FIG11", 3)
    phis10, ys10 = curves[("FIG11", 4)]
    tail10 = [y for phi, y in zip(phis10, ys10) if phi > 0]
    return [
        ("FIG9 optimum at phi=7000 (mu_new=1e-4)", opt("FIG9", 0)[0] == 7000.0),
        ("FIG9 optimum at phi=5000 (mu_new=5e-5)", opt("FIG9", 1)[0] == 5000.0),
        ("FIG9 max Y > 1.4", opt("FIG9", 0)[1] > 1.4),
        ("FIG10 optimum at phi=7000 (alpha=beta=6000)",
         opt("FIG10", 0)[0] == 7000.0),
        ("FIG10 optimum at phi=6000 (alpha=beta=2500)",
         opt("FIG10", 1)[0] == 6000.0),
        ("FIG11 optimum insensitive to coverage",
         len({phi for phi, _ in fig11}) == 1),
        ("FIG11 c=0.2 marginal benefit near phi=4000",
         1.0 < c20[1] < 1.1 and 2000.0 <= c20[0] <= 6000.0),
        ("FIG11 c=0.1 Y < 1 and decreasing",
         all(y < 1.0 for y in tail10)
         and all(a >= b for a, b in zip(tail10, tail10[1:]))),
        ("FIG12 optimum at phi=2500 (mu_new=1e-4)",
         opt("FIG12", 0, 500.0)[0] == 2500.0),
        ("FIG12 optimum at phi in {2000, 2500} (mu_new=5e-5)",
         opt("FIG12", 1, 500.0)[0] in (2000.0, 2500.0)),
    ]


def main() -> int:
    args = worker_args(__doc__)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    import repro.runtime.campaign as campaign
    from repro.ctmc.config import dispatch_counts
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.gsu.templates import warm_templates
    from repro.runtime.spec import CampaignSpec, CurveSpec, figure_campaign

    warm_templates()
    ready = ready_probe(args.spawned_at)
    if args.setup_only:
        print(json.dumps(ready))
        return 0

    out = args.out
    setup_samples = [ready]
    if not args.trace:
        setup_samples += setup_probe_samples(__file__, SETUP_PROBES)
    spec_inputs = (json.loads(args.inputs.read_text()) if args.inputs
                   else bench_inputs.paper_campaign_inputs(args.seed))
    write_json(out / "inputs.json", spec_inputs)
    reference = bench_inputs.load_reference()
    step = spec_inputs["step"]

    # (name, curve, reference Y, figure key or None)
    queries = []
    for figure in spec_inputs["figures"]:
        spec = figure_campaign(figure, step=step)
        for index, curve in enumerate(spec.curves):
            queries.append((figure, curve, reference["figures"][figure][index],
                            (figure, index)))
    for draw in spec_inputs["draws"]:
        entry = reference["pool"][draw]
        curve = CurveSpec(
            label=f"draw-{draw}",
            params=PAPER_TABLE3.with_overrides(**entry["overrides"]),
            step=step,
        )
        queries.append((f"DRAW{draw}", curve, entry["Y"], None))

    if recorder is not None:
        recorder.calibrate()
    probe = SpeedProbe()
    scaled: list[list[float]] = [[] for _ in queries]
    outputs: list[tuple[int, list[float], list[float]]] = []
    total_points = 0
    dispatch_before = dispatch_counts()
    clock = time.perf_counter
    start = clock()
    start_ns = time.perf_counter_ns()
    deadline = start + args.seconds
    passes = 0
    while passes < MIN_PASSES or clock() < deadline:
        for index, (name, curve, _ref, _key) in enumerate(queries):
            if passes >= MIN_PASSES and clock() >= deadline:
                break
            probe.sample()
            t0 = clock()
            sweep = campaign.run_campaign(
                CampaignSpec(name=name, curves=(curve,))).sweeps[0]
            scaled[index].append(probe.scaled(clock() - t0))
            total_points += len(sweep.points)
            outputs.append((index, [p.phi for p in sweep.points],
                            [p.y for p in sweep.points]))
        passes += 1
    wall = clock() - start
    end_ns = time.perf_counter_ns()
    dispatch_after = dispatch_counts()
    curve_points = sum(len(query[2]) for query in queries)
    per_curve = [median(runs) for runs in scaled]
    latencies = [1e3 * seconds for seconds in per_curve]

    failures = []
    tolerance = reference["tolerance"]
    first_pass = {}
    for index, phis, ys in outputs:
        name, curve, ref, key = queries[index]
        grid = list(curve.grid())
        if phis != grid or len(ys) != len(ref):
            failures.append(f"{name}: grid mismatch")
            continue
        worst = max(abs(a - b) for a, b in zip(ys, ref))
        if not worst <= tolerance:
            failures.append(f"{name}: |dY| = {worst:.3g} > {tolerance:g}")
        if key is not None and key not in first_pass:
            first_pass[key] = (phis, ys)
    claims = paper_claims(first_pass)
    failures += [f"claim failed: {text}" for text, ok in claims if not ok]

    result = {
        "attempted": len(outputs) + len(claims),
        "failed": len(failures),
        "failures": failures[:20],
        "e2e": {
            "setup_s": setup_metric(setup_samples),
            "points_per_s": metric(curve_points / sum(per_curve),
                                   "1/s", len(outputs)),
            "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
            "lat_p50_ms": metric(median(latencies), "ms", len(latencies)),
            "lat_p95_ms": metric(percentile(latencies, 0.95), "ms",
                                 len(latencies)),
        },
        "notes": {
            "queries": len(outputs),
            "passes": len(outputs) / len(queries),
            "curves": len(queries),
            "mean_points_per_s": total_points / wall,
            "slowdown": probe.slowdown(),
            "query": "one curve via run_campaign",
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
