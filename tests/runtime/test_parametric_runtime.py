"""The campaign runtime against the rebuilt-model reference.

Campaign solvers obtain their models by re-stamping compiled state-space
templates.  Re-stamped models are bitwise equal to fresh ``build_ctmc``
compiles (``ConstituentSolver(params, parametric=False)``), so:

* **Values** — every campaign curve equals the rebuilt-model curve bit
  for bit.
* **Cache compatibility** — cache keys never encode how a record was
  computed: entries written by the campaign or by the rebuilt-model
  reference serve the other at a 100% hit rate, bit for bit.
"""

import dataclasses

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_index
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.records import record_from_evaluation
from repro.runtime.spec import CampaignSpec, CurveSpec
from repro.runtime.tasks import plan_campaign


def _small_campaign() -> CampaignSpec:
    theta = PAPER_TABLE3.theta
    curves = []
    for coverage in (0.9, 0.95):
        params = dataclasses.replace(PAPER_TABLE3, coverage=coverage)
        curves.append(
            CurveSpec(
                label=f"c={coverage}",
                params=params,
                phis=(theta / 4, theta / 2),
            )
        )
    return CampaignSpec(name="parametric-audit", curves=tuple(curves))


#: The two execution paths as (parametric, batch): the campaign runtime
#: (re-stamped templates, batched), and the reference (rebuilt models,
#: ``evaluate_index`` point by point).
CAMPAIGN = (True, True)
REFERENCE = (False, False)


def _reference_records(spec: CampaignSpec) -> list[dict]:
    """Every planned point's record: rebuilt models, point by point."""
    records = []
    for curve in spec.curves:
        solver = ConstituentSolver(curve.params, parametric=False)
        records.extend(
            record_from_evaluation(evaluate_index(curve.params, phi, solver))
            for phi in curve.grid()
        )
    return records


def test_campaign_matches_rebuilt_models():
    spec = _small_campaign()
    result = run_campaign(spec)
    assert [o.record for o in result.outcomes] == _reference_records(spec)


@pytest.mark.parametrize(
    ("writer", "reader"),
    [
        # The pass that populates the cache vs the pass that must be
        # served entirely from it.
        (REFERENCE, CAMPAIGN),
        (CAMPAIGN, REFERENCE),
    ],
)
def test_cache_entries_cross_execution_paths(tmp_path, writer, reader):
    spec = _small_campaign()
    cache = ResultCache(root=tmp_path / "cache")
    tasks = plan_campaign(spec)

    if writer == CAMPAIGN:
        cold = run_campaign(spec, cache=cache)
        assert cold.cache_stats.misses == spec.num_points
        written = [o.record for o in cold.outcomes]
    else:
        written = _reference_records(spec)
        for task, record in zip(tasks, written):
            cache.put(task, record)

    if reader == CAMPAIGN:
        warm = run_campaign(spec, cache=cache)
        assert warm.tasks_computed == 0
        assert warm.cache_stats.hit_rate == 1.0
        served = [o.record for o in warm.outcomes]
    else:
        served = [cache.get(task) for task in tasks]
        assert served == _reference_records(spec)
    assert served == written
