"""The ``run_campaign`` entry point and process-wide runtime configuration.

:func:`run_campaign` is the one door every batch of ``Y(phi)``
evaluations goes through: it plans the spec, probes the result cache,
fans the misses out on the configured backend, writes artifacts, and
reassembles :class:`~repro.analysis.sweep.SweepResult` curves in spec
order.  Serial execution with no cache is the default, so interactive
callers (``run_sweep``, the canned experiments) behave exactly as they
always have unless a config says otherwise.

:class:`RuntimeConfig` carries the backend/jobs/cache/artifact choices.
The CLI installs one process-wide via :func:`set_config` /
:func:`use_config`; library callers can pass explicit arguments instead.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.runtime.artifacts import RunArtifacts, write_run_artifacts
from repro.runtime.cache import (
    CacheStats,
    MemoryLRUCache,
    ResultCache,
    TieredResultCache,
)
from repro.runtime.executor import EvaluateFn, TaskOutcome, execute_tasks
from repro.runtime.records import evaluation_from_record
from repro.runtime.spec import CampaignSpec
from repro.runtime.tasks import plan_campaign

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.sweep import SweepResult
    from repro.gsu.templates import TemplateCacheStats


@dataclass(frozen=True)
class RuntimeConfig:
    """How campaigns execute in this process.

    Attributes
    ----------
    backend:
        ``serial`` / ``thread`` / ``process`` (see executor docs).
    jobs:
        Worker count for the parallel backends.
    cache_dir:
        Result-cache directory; ``None`` disables caching.
    artifacts_dir:
        Where run manifests are written; ``None`` skips artifacts.
    chunk_size:
        Points per dispatched chunk (``None`` = auto-balanced).
    memory_cache:
        Entry capacity of an in-memory LRU tier placed in front of the
        on-disk cache (``0`` disables the tier).  With a tier enabled,
        run manifests report memory- and disk-tier hit rates separately.
    """

    backend: str = "serial"
    jobs: int = 1
    cache_dir: Path | str | None = None
    artifacts_dir: Path | str | None = None
    chunk_size: int | None = None
    memory_cache: int = 0

    def make_cache(self) -> ResultCache | TieredResultCache | None:
        """A cache matching the config (``None`` when fully disabled).

        ``cache_dir`` alone gives the plain on-disk store;
        ``memory_cache > 0`` fronts it with (or, without a directory,
        replaces it by) an in-memory LRU tier.
        """
        disk = (
            ResultCache(root=Path(self.cache_dir))
            if self.cache_dir is not None
            else None
        )
        if self.memory_cache > 0:
            return TieredResultCache(
                MemoryLRUCache(max_entries=self.memory_cache), disk
            )
        return disk


#: The process-wide default configuration (serial, uncached).
_DEFAULT_CONFIG = RuntimeConfig()
_config = _DEFAULT_CONFIG


def get_config() -> RuntimeConfig:
    """The currently installed runtime configuration."""
    return _config


def set_config(config: RuntimeConfig | None) -> None:
    """Install a process-wide configuration (``None`` restores defaults)."""
    global _config
    _config = config if config is not None else _DEFAULT_CONFIG


@contextlib.contextmanager
def use_config(config: RuntimeConfig) -> Iterator[RuntimeConfig]:
    """Temporarily install a configuration (restores the previous one)."""
    previous = get_config()
    set_config(config)
    try:
        yield config
    finally:
        set_config(previous)


@dataclass(frozen=True)
class CampaignResult:
    """Everything produced by one campaign run.

    Attributes
    ----------
    spec:
        The executed campaign.
    sweeps:
        One :class:`~repro.analysis.sweep.SweepResult` per curve, in
        spec order.
    outcomes:
        Per-task execution records, in plan order.
    cache_stats:
        Cache counters for this run (``None`` when caching was off).
        With a tiered cache these are the combined per-lookup counters.
    wall_seconds:
        End-to-end wall time of the run.
    artifacts:
        Manifest locations (``None`` when artifacts were off).
    cache_tier_stats:
        Per-tier (``memory`` / ``disk``) counters for this run; ``None``
        unless a tiered cache served it.
    template_stats:
        This run's SAN template-cache traffic (compiles / restamps /
        fallbacks) in the executing process — the in-process share of
        the solver work; process-pool workers hold their own caches.
    """

    spec: CampaignSpec
    sweeps: tuple["SweepResult", ...]
    outcomes: tuple[TaskOutcome, ...]
    cache_stats: CacheStats | None
    wall_seconds: float
    artifacts: RunArtifacts | None
    cache_tier_stats: dict[str, CacheStats] | None = None
    template_stats: "TemplateCacheStats | None" = None

    @property
    def solver_seconds(self) -> float:
        """Total time spent inside the constituent solver."""
        return sum(outcome.seconds for outcome in self.outcomes)

    @property
    def tasks_computed(self) -> int:
        """Number of points actually solved (not served from cache)."""
        return sum(1 for outcome in self.outcomes if not outcome.cached)


def _assemble_sweeps(
    spec: CampaignSpec, outcomes: list[TaskOutcome]
) -> tuple["SweepResult", ...]:
    """Rebuild one ``SweepResult`` per curve from ordered outcomes."""
    # Imported lazily: repro.analysis imports the runtime at module
    # scope, so the reverse import must happen at call time.
    from repro.analysis.sweep import SweepPoint, SweepResult

    per_curve: dict[int, list[TaskOutcome]] = {}
    for outcome in outcomes:
        per_curve.setdefault(outcome.task.curve_index, []).append(outcome)
    sweeps = []
    for curve_index, curve in enumerate(spec.curves):
        points = []
        for outcome in sorted(
            per_curve.get(curve_index, ()), key=lambda o: o.task.point_index
        ):
            evaluation = evaluation_from_record(outcome.record)
            points.append(
                SweepPoint(
                    phi=evaluation.phi, y=evaluation.value, evaluation=evaluation
                )
            )
        sweeps.append(
            SweepResult(label=curve.label, params=curve.params, points=tuple(points))
        )
    return tuple(sweeps)


def run_campaign(
    spec: CampaignSpec,
    backend: str | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    cache_dir: Path | str | None = None,
    no_cache: bool = False,
    artifacts_dir: Path | str | None = None,
    chunk_size: int | None = None,
    evaluate_fn: EvaluateFn | None = None,
) -> CampaignResult:
    """Plan, execute, and archive one campaign.

    Explicit arguments override the installed :class:`RuntimeConfig`;
    unspecified ones inherit from it.  ``cache`` takes precedence over
    ``cache_dir``; ``no_cache=True`` disables caching regardless of the
    configuration.
    """
    config = get_config()
    backend = backend if backend is not None else config.backend
    jobs = jobs if jobs is not None else config.jobs
    chunk_size = chunk_size if chunk_size is not None else config.chunk_size
    if artifacts_dir is None:
        artifacts_dir = config.artifacts_dir
    if no_cache:
        cache = None
    elif cache is None:
        if cache_dir is not None:
            cache = ResultCache(root=Path(cache_dir))
        else:
            cache = config.make_cache()

    stats_before = (
        replace(cache.stats) if cache is not None else None
    )
    tiers_before = (
        {name: replace(stats) for name, stats in cache.tier_stats().items()}
        if isinstance(cache, TieredResultCache)
        else None
    )
    from repro.gsu.templates import shared_cache

    templates_before = shared_cache().stats.snapshot()
    start = time.perf_counter()
    tasks = plan_campaign(spec)
    outcomes = execute_tasks(
        tasks,
        backend=backend,
        jobs=jobs,
        cache=cache,
        evaluate_fn=evaluate_fn,
        chunk_size=chunk_size,
    )
    sweeps = _assemble_sweeps(spec, outcomes)
    wall_seconds = time.perf_counter() - start

    # Per-run stats: the delta over this run, so a cache shared across
    # campaigns reports each run's own hits and misses.
    run_stats = None
    run_tier_stats = None
    if cache is not None:
        run_stats = cache.stats.delta(stats_before)
        if tiers_before is not None:
            run_tier_stats = {
                name: stats.delta(tiers_before[name])
                for name, stats in cache.tier_stats().items()
            }
    template_stats = shared_cache().stats.delta(templates_before)

    artifacts = None
    if artifacts_dir is not None:
        artifacts = write_run_artifacts(
            artifacts_dir,
            spec,
            outcomes,
            sweeps,
            backend=backend,
            jobs=jobs,
            wall_seconds=wall_seconds,
            cache=cache,
            run_stats=run_stats,
            run_tier_stats=run_tier_stats,
            template_stats=template_stats,
        )

    return CampaignResult(
        spec=spec,
        sweeps=sweeps,
        outcomes=tuple(outcomes),
        cache_stats=run_stats,
        wall_seconds=wall_seconds,
        artifacts=artifacts,
        cache_tier_stats=run_tier_stats,
        template_stats=template_stats,
    )
