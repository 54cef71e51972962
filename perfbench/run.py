"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-campaign --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``./src``.  With ``--trace 0`` the run prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` a separate, traced run prints the
per-layer metrics.  Each metric line gives its unit and sample count;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed output check makes ``correct``
false and the exit status 1.  Generated inputs, results and spans are
written under ``.bench_runs/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from bench_common import (
    BENCH_DIR,
    BLAS_ENV,
    CHILD_TIMEOUT_S,
    ROOT,
    RUNS_DIR,
    child_env,
    program_present,
)

WORKLOADS = {
    "paper-campaign": "wl_paper_campaign.py",
    "serve-mixed": "wl_serve_mixed.py",
    "fleet-transient": "wl_fleet_transient.py",
}


def _declared_metrics(trace: int) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", default=None,
                        help="replay a saved inputs.json")
    args = parser.parse_args()

    if not program_present():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2

    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH_DIR / WORKLOADS[args.workload]),
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if args.inputs:
        command += ["--inputs", os.path.abspath(args.inputs)]
    log_path = out / "worker.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        # Its own session, so a timeout can take down the worker and
        # anything it started (the serve workload's server).
        worker = subprocess.Popen(
            command + ["--spawned-at", repr(spawned)],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            cwd=ROOT, start_new_session=True,
        )
        try:
            code = worker.wait(timeout=CHILD_TIMEOUT_S + 20)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            code = None
    result_path = out / "result.json"
    if code != 0 or not result_path.is_file():
        sys.stderr.write(log_path.read_text()[-4000:])
        print(f"error: {args.workload} worker "
              f"{'timed out' if code is None else f'exited with {code}'}",
              file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {BLAS_ENV['OMP_NUM_THREADS']}  cpus {os.cpu_count()}")
    for key, value in sorted(result.get("notes", {}).items()):
        print(f"  note {key} = {value}")
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for declared in _declared_metrics(args.trace):
        name = declared["name"]
        # A layer the workload never enters reports 0.
        entry = source.get(name, {"value": 0, "unit": declared["unit"]})
        if entry["unit"] != declared["unit"]:
            print(f"error: {name} measured in {entry['unit']}, "
                  f"declared {declared['unit']}", file=sys.stderr)
            return 1
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
        samples = f" (n={entry['samples']})" if "samples" in entry else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{samples}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for failure in result.get("failures", []):
        print(f"  FAILED: {failure}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
