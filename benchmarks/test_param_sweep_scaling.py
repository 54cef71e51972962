"""Scaling benchmark for the parametric compilation fast path.

The engineering claim behind ``repro.san.parametric``: a multi-curve
parameter study (many parameter sets sharing one model *structure*, a
Fig. 11-style coverage family) explores each SAN state space **once**
and re-stamps rates for every further parameter set, instead of
re-running reachability and vanishing elimination per curve.

The benchmark times a cold single-worker coverage campaign (template
re-stamping) against the rebuild reference — per curve, one
``evaluate_batch`` on a ``ConstituentSolver(params, parametric=False)``,
which compiles every model from scratch — asserts the curves are
value-identical, that the template cache really did compile once per
model kind and re-stamp the rest, and that the fast path is at least
:data:`PARAM_BENCH_SPEEDUP` times faster.  Machine-readable numbers go
to ``benchmarks/reports/BENCH_param_sweep.json`` (same schema family as
``BENCH_sweep.json``).
"""

import dataclasses
import time

from benchmarks.conftest import publish_report, write_bench_json
from repro.analysis.tables import format_table
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.gsu.templates import MODEL_KINDS, shared_cache
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec

#: Coverage curves in the campaign (a dense Fig. 11-style family; the
#: paper's figure plots a handful of coverage values, a parameter study
#: plots dozens).
PARAM_BENCH_CURVES = 24

#: Guarded-operation durations evaluated per curve.  Small on purpose:
#: the benchmark isolates the per-curve state-space cost the parametric
#: path removes, not the per-point solver cost both paths share.
PARAM_BENCH_POINTS = 2

#: Required cold single-worker speedup of the parametric path.
PARAM_BENCH_SPEEDUP = 3.0


def _coverage_campaign() -> CampaignSpec:
    """``PARAM_BENCH_CURVES`` coverage values, Table 3 base point."""
    theta = PAPER_TABLE3.theta
    phis = tuple(
        theta * (j + 1) / (PARAM_BENCH_POINTS + 1)
        for j in range(PARAM_BENCH_POINTS)
    )
    curves = []
    for i in range(PARAM_BENCH_CURVES):
        coverage = 0.80 + 0.19 * i / (PARAM_BENCH_CURVES - 1)
        params = dataclasses.replace(PAPER_TABLE3, coverage=round(coverage, 6))
        curves.append(
            CurveSpec(label=f"c={coverage:.4f}", params=params, phis=phis)
        )
    return CampaignSpec(name="bench-param-sweep", curves=tuple(curves))


def _rebuild_curves(spec: CampaignSpec) -> list[list[float]]:
    """Every curve's values with models compiled from scratch per curve."""
    return [
        [
            evaluation.value
            for evaluation in evaluate_batch(
                curve.params,
                curve.phis,
                solver=ConstituentSolver(curve.params, parametric=False),
            )
        ]
        for curve in spec.curves
    ]


def _best_of_three(run) -> tuple[float, object]:
    """Best-of-three *cold* serial run.

    Cold means the process-wide template cache is dropped before every
    run: the parametric wall clock honestly includes the one-time
    symbolic compile of each model kind.
    """
    best_wall, best = float("inf"), None
    for _ in range(3):
        shared_cache().clear()
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall, best = wall, result
    return best_wall, best


def test_parametric_campaign_speedup():
    """Cold coverage campaign: template re-stamping vs rebuilds."""
    spec = _coverage_campaign()
    n_points = spec.num_points

    rebuild_wall, rebuild = _best_of_three(lambda: _rebuild_curves(spec))
    parametric_wall, parametric = _best_of_three(
        lambda: run_campaign(spec, backend="serial", jobs=1)
    )
    speedup = rebuild_wall / parametric_wall

    # The timed parametric pass left its statistics in the shared
    # cache: one compile per model kind, a re-stamp for every other
    # (kind, parameter-set) pair, and no fallbacks to the rebuild path.
    stats = shared_cache().stats
    assert stats.compiles == len(MODEL_KINDS)
    assert stats.restamps == len(MODEL_KINDS) * (PARAM_BENCH_CURVES - 1)
    assert stats.fallbacks == 0

    payload = {
        "benchmark": "BENCH_param_sweep",
        "description": (
            "cold single-worker FIG11-style coverage campaign, "
            "compile-once template re-stamping vs per-parameter rebuilds"
        ),
        "curves": PARAM_BENCH_CURVES,
        "points": n_points,
        "parametric": {
            "wall_seconds": parametric_wall,
            "points_per_second": n_points / parametric_wall,
        },
        "rebuild": {
            "wall_seconds": rebuild_wall,
            "points_per_second": n_points / rebuild_wall,
        },
        "speedup": speedup,
        "required_speedup": PARAM_BENCH_SPEEDUP,
    }
    write_bench_json("BENCH_param_sweep", payload)
    report = format_table(
        ["path", "wall s", "points/s"],
        [
            ["parametric", parametric_wall, n_points / parametric_wall],
            ["rebuild", rebuild_wall, n_points / rebuild_wall],
        ],
        title=(
            f"{PARAM_BENCH_CURVES}-curve coverage campaign: "
            f"parametric is {speedup:.1f}x faster"
        ),
    )
    publish_report("BENCH_param_sweep", report)

    # Re-stamps are bitwise identical to fresh builds, so the curves
    # must agree exactly — not approximately.
    assert [sweep.values for sweep in parametric.sweeps] == rebuild
    assert speedup >= PARAM_BENCH_SPEEDUP


def test_parametric_campaign_kernel(benchmark):
    """pytest-benchmark timing of the warm-template parametric campaign."""
    spec = _coverage_campaign()
    shared_cache().clear()
    run_campaign(spec, backend="serial", jobs=1)

    def kernel():
        return run_campaign(spec, backend="serial", jobs=1).tasks_computed

    assert benchmark(kernel) == spec.num_points
