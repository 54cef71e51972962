"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed: the same seed
gives the same parameter draws, curve order and request schedule.  The
drivers write what they generate to ``inputs.json`` next to the
results, and ``--inputs`` replays such a file.

Design-space draws vary the three Table 3 levers the paper studies one
at a time -- message rate ``lam``, fault-manifestation rate ``mu_new``
and acceptance-test coverage -- jointly over ranges that keep every
model well posed (``mu_new`` far below ``lam``, coverage inside
``(0, 1)`` so no draw changes the state-space structure).
"""

from __future__ import annotations

import json
import math
import random

from bench_common import BENCH_DIR

REFERENCE_FILE = BENCH_DIR / "reference" / "paper_campaign.json"

LAM_RANGE = (600.0, 2400.0)
LOG10_MU_NEW_RANGE = (math.log10(2e-5), math.log10(5e-4))
COVERAGE_RANGE = (0.10, 0.99)

#: Curves per paper-campaign pass drawn from the reference pool.  The
#: pass is kept short so every curve is timed many times per run.
CAMPAIGN_DRAWS = 30
#: Phi step of every paper-campaign curve.
CAMPAIGN_STEP = 100.0
FIGURES = ("FIG9", "FIG10", "FIG11", "FIG12")

#: Serve traffic: a hot set primed before timing, and the share of
#: requests that are fresh draws (cache misses).
SERVE_HOT_SET = 8
SERVE_MISS_SHARE = 0.10
#: One round of serve windows: open-loop windows of (arrival rate in
#: requests/s, seconds), with evenly spaced arrivals.  Every round
#: repeats the same arrival times and miss positions; only the
#: parameters drawn differ.
SERVE_ROUND_WINDOWS = ((100.0, 1.5), (200.0, 0.75))
#: Approximate seconds per round, and the share of the run rounds fill.
SERVE_ROUND_S = 2.4
SERVE_ROUNDS_SHARE = 0.8
#: Single windows after the rounds that finish the max-rate ladder.
SERVE_LADDER_WINDOWS = ((400.0, 1.0), (800.0, 1.0))
#: The paper's 11-point grid.
SERVE_STEP = 1000.0

#: Fleet queries: a lumped N=9 fleet on a grid that spans both solver
#: regimes (short horizons -> uniformization, mission horizons ->
#: dense/augmented expm), and the flat N=7 check on the short part.
FLEET_LUMPED_N = 9
FLEET_FLAT_N = 7
FLEET_SHORT_GRID = (0.0, 0.25)
FLEET_LONG_GRID = (5000.0,)
FLEET_DRAWS = 6


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_overrides(rng: random.Random) -> dict[str, float]:
    """One design-space point as Table 3 overrides."""
    return {
        "lam": rng.uniform(*LAM_RANGE),
        "mu_new": 10.0 ** rng.uniform(*LOG10_MU_NEW_RANGE),
        "coverage": rng.uniform(*COVERAGE_RANGE),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def paper_campaign_inputs(seed: int) -> dict:
    """Which pool draws this seed runs, in which order."""
    reference = load_reference()
    rng = rng_for("paper-campaign", seed)
    draws = rng.sample(range(len(reference["pool"])), CAMPAIGN_DRAWS)
    return {
        "workload": "paper-campaign",
        "seed": seed,
        "step": CAMPAIGN_STEP,
        "figures": list(FIGURES),
        "draws": draws,
    }


def fleet_inputs(seed: int) -> dict:
    """Fleet parameter draws (levers that leave the uniformization rate
    essentially unchanged, so query cost does not depend on the seed)."""
    rng = rng_for("fleet-transient", seed)
    fleets = [
        {
            "coverage": rng.uniform(0.5, 0.99),
            "mu": 10.0 ** rng.uniform(math.log10(5e-5), math.log10(5e-4)),
            "repair_rate": rng.uniform(1.0, 4.0),
        }
        for _ in range(FLEET_DRAWS)
    ]
    return {
        "workload": "fleet-transient",
        "seed": seed,
        "lumped_n": FLEET_LUMPED_N,
        "flat_n": FLEET_FLAT_N,
        "short_grid": list(FLEET_SHORT_GRID),
        "long_grid": list(FLEET_LONG_GRID),
        "fleets": fleets,
    }


def serve_inputs(seed: int, seconds: float) -> dict:
    """Hot set, the rounds of windows, then the ladder windows.

    A request is a hot-set index or a dict of fresh overrides; open-loop
    requests are ``[due_s, request]`` with the due time counted from the
    window's start.
    """
    rng = rng_for("serve-mixed", seed)
    hot = [draw_overrides(rng) for _ in range(SERVE_HOT_SET)]

    def pattern(count):
        # Every tenth request misses: the tail percentiles then always
        # fall on the same side of the hit/miss divide, and no seed
        # draws a burst of back-to-back solves the others lack.
        every = round(1 / SERVE_MISS_SHARE)
        return [index % every == every // 2 for index in range(count)]

    def fill(misses):
        return [draw_overrides(rng) if miss else rng.randrange(SERVE_HOT_SET)
                for miss in misses]

    def open_window(rate, length, repeats):
        dues = [i / rate for i in range(round(rate * length))]
        misses = pattern(len(dues))
        return [{"rate": rate,
                 "requests": [[due, req] for due, req in zip(dues, fill(misses))]}
                for _ in range(repeats)]

    rounds = max(3, round(SERVE_ROUNDS_SHARE * seconds / SERVE_ROUND_S))
    columns = [open_window(rate, length, rounds)
               for rate, length in SERVE_ROUND_WINDOWS]
    return {
        "workload": "serve-mixed",
        "seed": seed,
        "step": SERVE_STEP,
        "hot": hot,
        "rounds": [[column[r] for column in columns] for r in range(rounds)],
        "ladder": [open_window(rate, length, 1)[0]
                   for rate, length in SERVE_LADDER_WINDOWS],
    }
