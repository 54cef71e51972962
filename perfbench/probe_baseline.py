"""Measure the numbers behind BASELINE.md's discrepancy notes.

    PYTHONPATH=src python3 perfbench/probe_baseline.py

1. A cold 101-point Table 3 curve (``sweep_phi`` at phi step 100) in a
   fresh interpreter: total time, template compile time, and the time
   spent in the dense ``expm`` calls of the accumulated-reward solver.
2. The disk cache tier: the same cold FIG9-FIG12 campaign (step 100)
   run twice, each into a fresh cache directory under ``.bench_runs``.
3. Back-to-back 4-second paper-campaign runs in one process (curves
   from FIG9-FIG12 at step 100, uncached): points per second of each.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

from bench_common import RUNS_DIR, child_env

COLD_CURVE = r"""
import json, time
t0 = time.perf_counter()
import repro.ctmc.accumulated as accumulated
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import sweep_phi
from repro.gsu.templates import warm_templates
from repro.runtime.spec import default_grid
t_import = time.perf_counter() - t0
spent = [0.0, 0]
inner = accumulated.dense_expm
def timed_expm(*args, **kwargs):
    start = time.perf_counter()
    try:
        return inner(*args, **kwargs)
    finally:
        spent[0] += time.perf_counter() - start
        spent[1] += 1
accumulated.dense_expm = timed_expm
t1 = time.perf_counter()
warm_templates()
t2 = time.perf_counter()
sweep_phi(PAPER_TABLE3, default_grid(PAPER_TABLE3.theta, step=100.0))
t3 = time.perf_counter()
print(json.dumps({"import_s": t_import, "compile_s": t2 - t1,
                  "curve_s": t3 - t2, "cold_total_s": t3 - t1,
                  "expm_s": spent[0], "expm_calls": spent[1]}))
"""

CACHED_CAMPAIGN = r"""
import json, sys, time
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import figure_campaign
start = time.perf_counter()
points = 0
for name in ("FIG9", "FIG10", "FIG11", "FIG12"):
    points += run_campaign(figure_campaign(name, step=100.0),
                           cache_dir=sys.argv[1]).spec.num_points
print(json.dumps({"points": points, "wall_s": time.perf_counter() - start}))
"""

IN_PROCESS = r"""
import json, time
from repro.gsu.templates import warm_templates
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, figure_campaign
warm_templates()
curves = [c for n in ("FIG9", "FIG10", "FIG11", "FIG12")
          for c in figure_campaign(n, step=100.0).curves]
rates = []
for _ in range(6):
    start = time.perf_counter()
    points = 0
    while time.perf_counter() - start < 4.0:
        for curve in curves:
            points += len(run_campaign(
                CampaignSpec(name="probe", curves=(curve,))).sweeps[0].points)
    rates.append(points / (time.perf_counter() - start))
print(json.dumps({"points_per_s": rates}))
"""


def _run(code: str, *argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    cold = [_run(COLD_CURVE) for _ in range(5)]
    print("cold Table 3 curve (5 fresh processes, median):")
    for key in ("import_s", "compile_s", "curve_s", "cold_total_s", "expm_s",
                "expm_calls"):
        print(f"  {key}: {statistics.median(c[key] for c in cold):.4g}")
    print("disk tier, identical cold FIG9-12 campaigns into fresh caches:")
    for attempt in range(2):
        cache = RUNS_DIR / f"probe-cache-{attempt}"
        shutil.rmtree(cache, ignore_errors=True)
        result = _run(CACHED_CAMPAIGN, str(cache))
        shutil.rmtree(cache, ignore_errors=True)
        print(f"  run {attempt + 1}: {result['points']} points in "
              f"{result['wall_s']:.2f} s")
    rates = _run(IN_PROCESS)["points_per_s"]
    print("in-process 4 s paper-campaign runs (points/s): "
          + ", ".join(f"{rate:.0f}" for rate in rates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
