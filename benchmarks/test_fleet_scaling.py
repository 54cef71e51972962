"""Fleet scaling benchmark: sparse solvers against 1e3-1e7-state fleets.

The scale workload of the sparse-first solver core: composed MDCD
fleets (``4**N`` flat states) solved for a full ``Y(phi)`` transient
curve through ``auto`` dispatch — which routes these stiff, large
chains to the Krylov backend — and certified point-by-point against the
exact symmetry-lumped reference (``C(N+3,3)`` states).

Each tier additionally runs bounded-truncation uniformization
(``transient_grid(..., method="uniformization")``, the one Jensen walk
in :mod:`repro.ctmc.uniformization`) on a sub-horizon prefix of the
grid, under the benchmark's *declared* memory budget
(``REPRO_MEMORY_BUDGET_MB``), and checks the observed error against the
walk's own certified truncation bound.  The sub-horizon keeps the cost
honest: uniformization walks ``Lambda * t`` matvec terms, so this tier
prices by horizon, exactly like production dispatch assumes.

Per fleet size the benchmark records assembly time, solve time, peak
RSS, the declared memory budget, the backends that actually dispatched
(with counts), the uniformization certificate, and the max absolute
error vs the lumped reference, then writes
``benchmarks/reports/BENCH_scaling.json``.  The uniformization tier's
block in each row keeps its report key ``streaming`` (and
``streaming_only``) so new rows merge with committed ones.

Profiles (``FLEET_BENCH_PROFILE``):

``full`` (default)
    N = 5, 7, 9 — 1 024 / 16 384 / 262 144 flat states; the 262 144
    tier is the headline ">= 1e5 states within certified bound" result.
``smoke``
    N = 4, 6 — seconds-scale; run by ``make scaling-smoke`` (and thus
    ``make test``); writes ``BENCH_scaling_smoke.json`` so it never
    clobbers a committed full run.

The 1e6-state tier (N = 10) is ``slow``-marked: nightly CI appends it
to the full profile's JSON.  The 1e7 tier (N = 12, 16 777 216 flat
states, uniformization-only) is both ``slow``-marked *and* gated behind
``FLEET_BENCH_PROFILE=slow`` — nightly CI opts in explicitly.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    REPORTS_DIR,
    peak_rss_bytes,
    publish_report,
    write_bench_json,
)
from repro.analysis.tables import format_table
from repro.ctmc import config
from repro.ctmc.transient import transient_grid
from repro.ctmc.uniformization import truncation_certificate
from repro.gsu.fleet import FleetParameters, FleetSolver

#: The benchmark grid: a full 21-point transient curve over the fleet's
#: fast timescales (detection ~1/114 h, repair ~1/2 h).  Transient cost
#: for every candidate backend grows with ``Lambda * t`` (uniformization
#: walks that many terms; Krylov takes that many matvec sub-steps), so
#: the horizon — not the state count — prices a point; a 10-hour curve
#: exercises a 262 144-state solve in tens of seconds where the paper's
#: 10 000-hour optimisation horizon would take hours at any accuracy.
#: Durations beyond the benchmark horizon are production-served by the
#: exact lumped representation (220 states at N = 9), as everywhere.
PHIS = tuple(p / 2.0 for p in range(0, 21))

#: Uniformization sub-horizon: the first five grid points (0..2 h).  The
#: walk costs ``Lambda * t`` matvecs with zero per-step allocation, so
#: its tier is priced by this prefix horizon while the Krylov path
#: carries the full 10-hour curve.
UNIFORMIZATION_PHIS = PHIS[:5]

#: Stiffness-threshold override applied during the benchmark so the
#: 10-hour horizon dispatches like the 10 000-hour production regime:
#: dense expm below DENSE_STATE_LIMIT, Krylov above it.  Exercising the
#: documented ``REPRO_*`` override surface is part of the benchmark.
STIFFNESS_OVERRIDE = "100.0"

#: Certified agreement bound between flat (sparse) and lumped solves.
ACCURACY_BOUND = 1e-8

#: Declared memory budget per profile (MiB) — set as
#: ``REPRO_MEMORY_BUDGET_MB`` for the whole case so runtime chunking
#: and uniformization workspace admission answer to the same number, and
#: recorded verbatim in every result row.
MEMORY_BUDGET_MB = {"smoke": 1024, "full": 4096, "slow": 12288}


def _profile() -> str:
    return os.environ.get("FLEET_BENCH_PROFILE", "full")


def _fleet_sizes() -> tuple[int, ...]:
    return (4, 6) if _profile() == "smoke" else (5, 7, 9)


def _memory_budget_mb() -> int:
    return MEMORY_BUDGET_MB.get(_profile(), MEMORY_BUDGET_MB["full"])


def _results_path():
    name = (
        "BENCH_scaling_smoke.json"
        if _profile() == "smoke"
        else "BENCH_scaling.json"
    )
    return REPORTS_DIR / name


def solve_fleet_case(n: int, streaming_only: bool = False) -> dict:
    """One row of the sweep: flat sparse solve vs lumped reference."""
    params = FleetParameters(n_processes=n)
    overrides = {
        "REPRO_AUTO_STIFFNESS_THRESHOLD": STIFFNESS_OVERRIDE,
        "REPRO_MEMORY_BUDGET_MB": str(_memory_budget_mb()),
    }
    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        return _solve_fleet_case(params, streaming_only=streaming_only)
    finally:
        for name, value in previous.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _uniformization_pass(chain, rewards, reference) -> dict:
    """The uniformization tier of one case.

    Solves the sub-horizon prefix through the solver dispatcher (which
    counts it under the ``uniformization`` label) under the declared
    budget, and reports the walk's certificate alongside the observed
    error, so the "within the certified truncation bound" claim is
    checkable from the JSON alone.  The certificate depends only on the
    chain's rate, the grid and the budget, so it is planned up front
    without a second walk.
    """
    times = np.array(UNIFORMIZATION_PHIS)
    cert = truncation_certificate(
        chain.generator, chain.initial_distribution, times
    )
    start = time.perf_counter()
    rows = transient_grid(chain, times, method="uniformization")
    seconds = time.perf_counter() - start
    curve = rows @ rewards
    max_error = float(
        np.max(np.abs(curve - reference[: len(UNIFORMIZATION_PHIS)]))
    )
    return {
        "phis": list(UNIFORMIZATION_PHIS),
        "horizon_hours": UNIFORMIZATION_PHIS[-1],
        "solve_seconds": seconds,
        "max_abs_error_vs_lumped": max_error,
        "distribution_bound": cert.distribution_bound,
        "terms": cert.terms,
        "segments": cert.segments,
        "workspace_bytes": cert.workspace_bytes,
        "budget_bytes": cert.budget_bytes,
        "allocation_free": cert.allocation_free,
        "within_certified_bound": max_error
        <= cert.distribution_bound + ACCURACY_BOUND,
    }


def _solve_fleet_case(
    params: FleetParameters, streaming_only: bool = False
) -> dict:
    """One row; ``streaming_only`` skips the full Krylov curve and runs
    only the uniformization tier (the 1e7 tier)."""
    n = params.n_processes
    lumped = FleetSolver(params, mode="lumped")
    start = time.perf_counter()
    reference = lumped.curve(PHIS)
    lumped_seconds = time.perf_counter() - start

    flat = FleetSolver(params, mode="flat")
    start = time.perf_counter()
    chain = flat.chain()
    assemble_seconds = time.perf_counter() - start
    rewards = flat.operational_rewards()

    before = config.dispatch_counts()
    if streaming_only:
        solve_seconds, max_error, y_theta = 0.0, 0.0, float(reference[-1])
    else:
        start = time.perf_counter()
        rows = transient_grid(chain, PHIS, method="auto")
        solve_seconds = time.perf_counter() - start
        curve = rows @ rewards
        max_error = float(np.max(np.abs(curve - reference)))
        y_theta = float(curve[-1])

    streaming = _uniformization_pass(chain, rewards, reference)
    after = config.dispatch_counts()
    backends = {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if count - before.get(name, 0) > 0
    }
    return {
        "n_processes": n,
        "flat_states": params.flat_states,
        "lumped_states": params.lumped_states,
        "nnz": int(chain.generator.nnz),
        "grid_points": len(PHIS),
        "horizon_hours": PHIS[-1],
        "assemble_seconds": assemble_seconds,
        "solve_seconds": solve_seconds,
        "lumped_reference_seconds": lumped_seconds,
        "memory_budget_mb": _memory_budget_mb(),
        "backends": backends,
        "streaming": streaming,
        "streaming_only": streaming_only,
        "max_abs_error_vs_lumped": max_error,
        "peak_rss_bytes": peak_rss_bytes(),
        "y_at_theta": y_theta,
    }


def _write_results(rows: list[dict]) -> None:
    payload = {
        "benchmark": "BENCH_scaling",
        "profile": _profile(),
        "phis": list(PHIS),
        "accuracy_bound": ACCURACY_BOUND,
        "memory_budget_mb": _memory_budget_mb(),
        "results": rows,
    }
    write_bench_json(_results_path().name, payload)


def _append_row(row: dict) -> None:
    """Merge one slow-tier row into the committed full-profile JSON."""
    path = _results_path()
    if not path.exists():
        return
    payload = json.loads(path.read_text())
    payload["results"] = [
        existing
        for existing in payload["results"]
        if existing["n_processes"] != row["n_processes"]
    ] + [row]
    write_bench_json(path.name, payload)


@pytest.fixture(scope="module")
def scaling_rows() -> list[dict]:
    rows = [solve_fleet_case(n) for n in _fleet_sizes()]
    _write_results(rows)
    report = format_table(
        ["N", "flat states", "assemble s", "solve s", "max err",
         "unif err", "RSS MiB"],
        [
            [
                row["n_processes"],
                row["flat_states"],
                f"{row['assemble_seconds']:.2f}",
                f"{row['solve_seconds']:.2f}",
                f"{row['max_abs_error_vs_lumped']:.2e}",
                f"{row['streaming']['max_abs_error_vs_lumped']:.2e}",
                f"{row['peak_rss_bytes'] / 2**20:.0f}",
            ]
            for row in rows
        ],
        title=(
            f"Fleet scaling ({_profile()} profile): sparse Y(phi) curve "
            "vs lumped reference"
        ),
    )
    publish_report("BENCH_scaling", report)
    return rows


def test_results_file_written(scaling_rows):
    payload = json.loads(_results_path().read_text())
    assert payload["profile"] == _profile()
    assert payload["memory_budget_mb"] == _memory_budget_mb()
    assert len(payload["results"]) == len(_fleet_sizes())
    for row in payload["results"]:
        assert row["solve_seconds"] > 0.0
        assert row["peak_rss_bytes"] > 0
        assert row["memory_budget_mb"] == _memory_budget_mb()


def test_accuracy_certified_against_lumped_reference(scaling_rows):
    for row in scaling_rows:
        assert row["max_abs_error_vs_lumped"] < ACCURACY_BOUND, (
            f"N={row['n_processes']}: flat sparse curve drifted "
            f"{row['max_abs_error_vs_lumped']:.2e} from the lumped "
            f"reference (bound {ACCURACY_BOUND})"
        )


def test_uniformization_within_certified_bound(scaling_rows):
    for row in scaling_rows:
        tier = row["streaming"]
        assert tier["within_certified_bound"], (
            f"N={row['n_processes']}: uniformization error "
            f"{tier['max_abs_error_vs_lumped']:.2e} exceeds its own "
            f"certificate {tier['distribution_bound']:.2e}"
        )
        assert tier["workspace_bytes"] <= tier["budget_bytes"]


def test_uniformization_dispatch_counted(scaling_rows):
    # Counted by the dispatcher itself, not by the benchmark.
    for row in scaling_rows:
        assert row["backends"].get("uniformization", 0) >= 1


def test_large_tier_reaches_target_scale(scaling_rows):
    largest = scaling_rows[-1]
    if _profile() == "smoke":
        assert largest["flat_states"] >= 1_000
    else:
        assert largest["flat_states"] >= 100_000


def test_large_models_dispatch_sparse_backends(scaling_rows):
    # The stiff large-fleet curve must route through the Krylov path
    # (the whole point of the sparse-first core), never densifying.
    largest = scaling_rows[-1]
    if largest["flat_states"] > config.limits().dense_state_limit:
        assert "krylov" in largest["backends"]
        assert "dense-expm" not in largest["backends"]


def test_curve_is_physical(scaling_rows):
    for row in scaling_rows:
        assert 0.0 <= row["y_at_theta"] <= 1.0


@pytest.mark.slow
def test_million_state_tier():
    """N = 10: 1 048 576 flat states, appended to the full-profile JSON."""
    row = solve_fleet_case(10)
    assert row["flat_states"] >= 1_000_000
    assert row["max_abs_error_vs_lumped"] < ACCURACY_BOUND
    assert row["streaming"]["within_certified_bound"]
    _append_row(row)


@pytest.mark.slow
def test_ten_million_state_tier():
    """N = 12: 16 777 216 flat states, uniformization-only (nightly).

    The full Krylov curve at this size would run for hours; the tier
    demonstrates that blocked assembly plus the uniformization walk stay
    within the declared budget and the certified bound at 1e7 states.
    Gated behind ``FLEET_BENCH_PROFILE=slow`` on top of the ``slow``
    marker so only the nightly sweep opts in.
    """
    if _profile() != "slow":
        pytest.skip("1e7 tier runs only under FLEET_BENCH_PROFILE=slow")
    row = solve_fleet_case(12, streaming_only=True)
    assert row["flat_states"] >= 10_000_000
    assert row["streaming"]["within_certified_bound"]
    _append_row(row)
