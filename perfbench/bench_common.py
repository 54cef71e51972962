"""Helpers shared by the benchmark's runner and workload drivers.

At module level this imports only the standard library: the runner
must start (and fail cleanly) in a directory that holds nothing but the
benchmark, and the workload drivers import it before the program under
test.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

#: BLAS/OpenMP pools pinned to one thread: the serve workload runs a
#: client and a server on a two-core box, and the paper's models are
#: 42x42 matrices that gain nothing from threaded BLAS.
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

#: Wall-clock limit on any one child process the benchmark starts.
CHILD_TIMEOUT_S = 150.0


def program_present() -> bool:
    """Whether the program under test is in this checkout."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every benchmark child: the checkout's ``src`` on
    the path, pinned BLAS pools, unbuffered output."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


#: The speed probe's median and fastest sample times on the box the
#: benchmark was made on (2-vCPU KVM guest, Intel Xeon 4th gen, Python
#: 3.11, NumPy 2.4, SciPy 1.17).  Figures are scaled to the machine
#: speed these imply.
PROBE_REFERENCE_S = 0.0025
PROBE_FASTEST_REFERENCE_S = 0.0015


class SpeedProbe:
    """Times a fixed kernel that runs no program code.

    The box's CPU speed moves by up to 1.8x for seconds to minutes at a
    time, with no steal time reported: frequency, set by load the guest
    cannot see.  Each run samples this kernel evenly between its own
    units of work, so the probe and the program see the same mix of
    fast and slow moments; dividing the run's times by the probe's
    time over its reference time puts every run on one machine speed,
    so runs made while the host was busy compare with runs made while
    it was idle.  The kernel mixes interpreter work and small dense
    linear algebra, as the workloads do, and each sample runs it once
    untimed first so that what the program left in the caches does
    not count.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import expm

        self._expm = expm
        self._matrix = np.random.default_rng(0).random((42, 42)) - 0.5
        self.samples: list[float] = []

    def _kernel(self) -> None:
        for _ in range(2):
            self._expm(self._matrix)
        table = {}
        for i in range(3000):
            table[(i, i % 7)] = [i, i * 0.5]
        total = 0.0
        for (_, k), (a, b) in table.items():
            total += a * b * k

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            self._kernel()
            start = clock()
            self._kernel()
            self.samples.append(clock() - start)

    def slowdown(self, fastest: bool = False) -> float:
        """How much slower than the reference the machine ran during
        this run (> 1 means slower): typically (the median sample), to
        scale mean times, or at its fastest (the fastest sample), to
        scale fastest-replay times."""
        if fastest:
            return min(self.samples) / PROBE_FASTEST_REFERENCE_S
        return median(self.samples) / PROBE_REFERENCE_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` at the reference machine speed, going by the
        sample taken just before them: the speed can change within a
        second, so only an adjacent sample tracks it."""
        return seconds * PROBE_REFERENCE_S / self.samples[-1]


def ready_probe(spawned_at: float) -> dict:
    """Start-to-ready seconds of this process, and the machine speed
    right after (five probe samples), for one ``setup_s`` sample."""
    ready = time.monotonic() - spawned_at
    probe = SpeedProbe()
    probe.sample(5)
    return {"ready_s": ready, "slowdown": probe.slowdown()}


def worker_args(description: str):
    """Parse the command line every workload driver shares."""
    import argparse

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for inputs.json, result.json, spans")
    parser.add_argument("--inputs", type=Path, default=None,
                        help="replay a saved inputs.json instead of "
                             "generating inputs from --seed")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() just before this process "
                             "was started (for setup_s)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print start-to-ready seconds (and the "
                             "machine speed) and exit")
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    return args


def setup_probe_samples(script: Path, count: int) -> list[dict]:
    """Start ``script --setup-only`` ``count`` times in fresh interpreters
    and return each one's :func:`ready_probe` record."""
    samples = []
    for _ in range(count):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script), "--setup-only",
             "--spawned-at", repr(spawned)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_metric(samples: list[dict]) -> dict:
    """``setup_s``: the median of the samples, each scaled to the
    reference machine speed."""
    return metric(median(s["ready_s"] / s["slowdown"] for s in samples),
                  "s", len(samples))
