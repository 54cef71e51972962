"""Regenerate ``reference/paper_campaign.json``.

The file holds ``Y`` for every point the paper-campaign workload can
run: the FIG9-FIG12 campaigns at phi step 100 and a fixed pool of
design-space draws (101-point curves).  The workload checks each ``Y``
it computes against this file to within ``tolerance``.  Only rerun this
on a commit whose answers are known good; the committed file was made
at the commit that introduced the benchmark.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import random
import sys

from inputs import (
    CAMPAIGN_STEP,
    FIGURES,
    REFERENCE_FILE,
    draw_overrides,
)

POOL_SIZE = 150
POOL_SEED = 2002
TOLERANCE = 1e-9


def main() -> int:
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.runtime.campaign import run_campaign
    from repro.runtime.spec import CampaignSpec, CurveSpec, figure_campaign

    figures = {}
    for name in FIGURES:
        result = run_campaign(figure_campaign(name, step=CAMPAIGN_STEP))
        figures[name] = [[point.y for point in sweep.points]
                         for sweep in result.sweeps]
    rng = random.Random(POOL_SEED)
    pool = []
    for index in range(POOL_SIZE):
        overrides = draw_overrides(rng)
        curve = CurveSpec(label=f"draw-{index}",
                          params=PAPER_TABLE3.with_overrides(**overrides),
                          step=CAMPAIGN_STEP)
        sweep = run_campaign(CampaignSpec(name="pool", curves=(curve,))).sweeps[0]
        pool.append({"overrides": overrides,
                     "Y": [point.y for point in sweep.points]})
    lines = [
        "{",
        f' "tolerance": {TOLERANCE!r},',
        f' "step": {CAMPAIGN_STEP!r},',
        f' "pool_seed": {POOL_SEED},',
        ' "figures": {',
        ",\n".join(f"  {json.dumps(name)}: {json.dumps(curves)}"
                   for name, curves in figures.items()),
        " },",
        ' "pool": [',
        ",\n".join(f"  {json.dumps(entry)}" for entry in pool),
        " ]",
        "}",
    ]
    REFERENCE_FILE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE_FILE} ({len(figures)} figures, {len(pool)} draws)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
