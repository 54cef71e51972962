"""Batched per-curve execution through the campaign runtime.

The runtime solves cache-missing points one solver pass per curve, but
must agree with the point-by-point reference (``evaluate_index`` at
every phi): same record contents bit for bit, same cache keys, and a
cache populated point by point serves a campaign fully.
"""

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_index
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.records import record_from_evaluation
from repro.runtime.spec import CampaignSpec, CurveSpec
from repro.runtime.tasks import group_by_params, plan_campaign


def small_spec(name="batch-test", phis=(0.0, 4000.0, 10_000.0)):
    return CampaignSpec(
        name=name,
        curves=(
            CurveSpec(label="base", params=PAPER_TABLE3, phis=tuple(phis)),
        ),
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


def per_point_records(spec):
    """The reference: ``evaluate_index`` per planned point, fresh solver."""
    solver = ConstituentSolver(PAPER_TABLE3)
    return [
        record_from_evaluation(evaluate_index(task.params, task.phi, solver))
        for task in plan_campaign(spec)
    ]


class TestBatchPointEquivalence:
    def test_batched_and_per_point_runs_are_bitwise_equal(self):
        spec = small_spec()
        batched = run_campaign(spec)
        per_point = per_point_records(spec)
        assert batched.sweeps[0].values == [r["value"] for r in per_point]
        assert [o.record for o in batched.outcomes] == per_point

    def test_per_point_cache_serves_batched_rerun_fully(self, cache):
        # A cache populated point by point must yield 100% hits when the
        # same campaign reruns batched.
        spec = small_spec()
        for task, record in zip(plan_campaign(spec), per_point_records(spec)):
            cache.put(task, record)

        warm = run_campaign(spec, cache=cache)
        assert warm.cache_stats.hits == 3
        assert warm.cache_stats.misses == 0
        assert [o.record for o in warm.outcomes] == per_point_records(spec)

    def test_batched_cache_serves_per_point_rerun_fully(self, cache):
        # Every entry a batched run writes is exactly the record the
        # point-by-point reference computes under the same key.
        spec = small_spec()
        cold = run_campaign(spec, cache=cache)
        assert cold.cache_stats.misses == 3

        tasks = plan_campaign(spec)
        assert [cache.get(task) for task in tasks] == per_point_records(spec)

    def test_partial_cache_batches_only_the_misses(self, cache):
        # Pre-populate two of five points; the batched rerun must solve
        # exactly the three missing ones and reuse the rest.
        phis = (0.0, 2500.0, 5000.0, 7500.0, 10_000.0)
        seed = small_spec(phis=(2500.0, 7500.0))
        run_campaign(seed, cache=cache)

        full = run_campaign(small_spec(phis=phis), cache=cache)
        assert full.cache_stats.hits == 2
        assert full.cache_stats.misses == 3
        cached_flags = [o.cached for o in full.outcomes]
        assert cached_flags == [False, True, False, True, False]

        reference = per_point_records(small_spec(phis=phis))
        assert full.sweeps[0].values == [r["value"] for r in reference]


class TestGroupByParams:
    def test_groups_preserve_plan_order(self):
        other = PAPER_TABLE3.with_overrides(mu_new=5e-5)
        spec = CampaignSpec(
            name="grouping",
            curves=(
                CurveSpec(label="a", params=PAPER_TABLE3, phis=(0.0, 1.0)),
                CurveSpec(label="b", params=other, phis=(2.0,)),
                CurveSpec(label="c", params=PAPER_TABLE3, phis=(3.0,)),
            ),
        )
        pending = list(enumerate(plan_campaign(spec)))
        groups = group_by_params(pending)
        assert list(groups) == [PAPER_TABLE3, other]
        phis_first = [task.phi for _, task in groups[PAPER_TABLE3]]
        assert phis_first == [0.0, 1.0, 3.0]
        assert [task.phi for _, task in groups[other]] == [2.0]
