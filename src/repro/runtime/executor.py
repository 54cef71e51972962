"""Execution backends for planned evaluation tasks.

Three backends behind one interface:

``serial``
    In-process loop — the reference backend; zero scheduling overhead.
``thread``
    ``ThreadPoolExecutor`` — the solver's linear algebra releases the
    GIL, so threads overlap the numerical kernels.
``process``
    ``ProcessPoolExecutor`` — full CPU parallelism; tasks and records
    are plain picklable data by construction.

Tasks are grouped into *chunks* of same-parameter work before dispatch
so each worker compiles the four base models once per chunk instead of
once per point.  Results are reassembled strictly in the order the
tasks were submitted — backend choice, chunking, completion order, and
worker count never change the output, only the wall clock.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.ctmc import config
from repro.gsu.fleet import FleetParameters, FleetSolver
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import PerformabilityEvaluation, evaluate_batch
from repro.runtime.cache import ResultCache
from repro.runtime.records import record_from_evaluation
from repro.runtime.tasks import (
    EvaluationTask,
    FleetTask,
    SurrogateFitTask,
    VerificationTask,
    group_by_params,
    order_groups_by_structure,
)

#: The supported backend names.
BACKENDS = ("serial", "thread", "process")

#: An injectable evaluation function ``(params, phi, solver) -> evaluation``.
EvaluateFn = Callable[[GSUParameters, float, ConstituentSolver], PerformabilityEvaluation]


@dataclass(frozen=True)
class TaskOutcome:
    """One executed (or cache-served) task.

    Attributes
    ----------
    task:
        The planned task.
    record:
        The plain-data evaluation record (see :mod:`repro.runtime.records`).
    seconds:
        Solver wall time attributed to this point: the point's share of
        its chunk's batched solve (its own solve time under an
        ``evaluate_fn`` override), 0.0 when served from cache.
    cached:
        Whether the record came from the result cache.
    """

    task: EvaluationTask | VerificationTask
    record: dict
    seconds: float
    cached: bool


def _solve_points(
    params: GSUParameters,
    phis: Sequence[float],
    evaluate_fn: EvaluateFn | None = None,
) -> list[tuple[dict, float]]:
    """Evaluate one chunk of same-parameter points with a shared solver.

    The whole chunk goes through
    :func:`~repro.gsu.performability.evaluate_batch` — one solver pass
    per (model, reward structure) — and each point reports its share of
    the chunk's wall time.  An ``evaluate_fn`` override is called once
    per point instead, so instrumentation stubs observe every point.

    Module-level so the process backend can pickle it.  Each worker
    process holds its own shared template cache, so with
    structure-ordered chunks it compiles each model structure once and
    re-stamps for every subsequent chunk it serves.
    """
    solver = ConstituentSolver(params)
    if evaluate_fn is None:
        start = time.perf_counter()
        evaluations = evaluate_batch(params, list(phis), solver=solver)
        per_point = (time.perf_counter() - start) / max(len(evaluations), 1)
        return [
            (record_from_evaluation(evaluation), per_point)
            for evaluation in evaluations
        ]
    results: list[tuple[dict, float]] = []
    for phi in phis:
        start = time.perf_counter()
        evaluation = evaluate_fn(params, phi, solver)
        results.append(
            (record_from_evaluation(evaluation), time.perf_counter() - start)
        )
    return results


def _chunk_length(group_size: int, jobs: int, chunk_size: int | None) -> int:
    """Points per chunk: explicit, else ~2 chunks per worker per group."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if jobs <= 1:
        return group_size
    return max(1, math.ceil(group_size / (2 * jobs)))


#: Canonical budget reader — shared with the uniformization walk so a
#: single ``REPRO_MEMORY_BUDGET_MB`` declaration governs chunk sizing
#: here *and* workspace admission in :mod:`repro.ctmc.uniformization`.
memory_budget_bytes = config.memory_budget_bytes


def _memory_aware_chunk_length(
    group_size: int,
    jobs: int,
    chunk_size: int | None,
    num_states: int,
    workers: int,
) -> int:
    """Chunk length capped so concurrent chunks fit the memory budget.

    A chunk of ``m`` grid points on an ``n``-state model materialises an
    ``m x n`` float64 result block (plus the shared generator, counted
    once per worker at roughly ``10 * 16`` bytes per state for the fleet
    sparsity).  With ``workers`` chunks in flight, the per-chunk
    allowance is ``budget / workers``; the cap keeps large-model chunks
    small (streamed through the solver in more, shorter passes) while
    leaving small-model chunking untouched.
    """
    length = _chunk_length(group_size, jobs, chunk_size)
    if chunk_size is not None:
        return length  # explicit request wins; the user sized it
    per_chunk_budget = memory_budget_bytes() // max(workers, 1)
    model_bytes = num_states * 160  # CSR generator share per worker
    row_bytes = num_states * 8
    available = per_chunk_budget - model_bytes
    if available <= row_bytes:
        return 1
    return max(1, min(length, int(available // row_bytes)))


def execute_tasks(
    tasks: Sequence[EvaluationTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
    evaluate_fn: EvaluateFn | None = None,
    chunk_size: int | None = None,
) -> list[TaskOutcome]:
    """Execute tasks and return outcomes in submission order.

    Parameters
    ----------
    tasks:
        The tasks to run, in any order; outcomes come back aligned with
        this sequence element-for-element.
    backend:
        One of :data:`BACKENDS`.
    jobs:
        Worker count for the ``thread``/``process`` backends.
    cache:
        Optional result cache — hits skip the solver entirely, misses
        are computed and written back.
    evaluate_fn:
        Evaluation override for instrumentation (e.g. counting stub
        solvers in tests), called once per point instead of the
        batched chunk solve.  Supported on the in-process backends only;
        the process backend would need to pickle it.
    chunk_size:
        Points per dispatched chunk; default sizes chunks to roughly
        two per worker per curve for load balance.

    Each chunk of cache-missing points is solved in one batched pass
    (one solver run per model and reward structure) on models
    re-stamped from compiled state-space templates.  Chunks dispatch in
    structure-key order so each worker compiles every structure at most
    once.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if evaluate_fn is not None and backend == "process":
        raise ValueError(
            "evaluate_fn overrides require the serial or thread backend"
        )

    outcomes: dict[int, TaskOutcome] = {}
    pending: list[tuple[int, EvaluationTask]] = []
    for position, task in enumerate(tasks):
        record = cache.get(task) if cache is not None else None
        if record is not None:
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=0.0, cached=True
            )
        else:
            pending.append((position, task))

    # Group pending work by parameter set, ordered by structure key
    # (parameter sets sharing a state-space template dispatch
    # consecutively, so pool workers compile each structure at most
    # once), then split each group into chunks for the worker pool.
    groups = order_groups_by_structure(group_by_params(pending))
    chunks: list[list[tuple[int, EvaluationTask]]] = []
    for group in groups.values():
        length = _chunk_length(len(group), jobs, chunk_size)
        chunks.extend(
            group[start : start + length] for start in range(0, len(group), length)
        )

    def _chunk_args(chunk):
        return chunk[0][1].params, tuple(task.phi for _, task in chunk)

    if backend == "serial" or jobs == 1 or len(chunks) <= 1:
        solved = [
            _solve_points(*_chunk_args(chunk), evaluate_fn=evaluate_fn)
            for chunk in chunks
        ]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _solve_points, *_chunk_args(chunk), evaluate_fn=evaluate_fn
                )
                for chunk in chunks
            ]
            solved = [future.result() for future in futures]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_solve_points, *_chunk_args(chunk))
                for chunk in chunks
            ]
            solved = [future.result() for future in futures]

    for chunk, results in zip(chunks, solved):
        for (position, task), (record, seconds) in zip(chunk, results):
            if cache is not None:
                cache.put(task, record)
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=seconds, cached=False
            )

    return [outcomes[position] for position in range(len(tasks))]


def _simulate_verify_block(task: VerificationTask) -> tuple[dict, float]:
    """Module-level block worker for verification tasks (picklable).

    The import is deferred so the evaluation-only runtime path never
    pays for (or depends on) the simulation machinery.
    """
    from repro.verify.estimators import simulate_block

    start = time.perf_counter()
    record = simulate_block(
        task.params,
        task.model_key,
        task.phis,
        task.replications,
        task.seed,
        task.block,
        steady_horizon=task.steady_horizon,
        steady_warmup=task.steady_warmup,
    )
    return record, time.perf_counter() - start


def execute_verify_tasks(
    tasks: Sequence[VerificationTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[TaskOutcome]:
    """Execute verification blocks and return outcomes in submission order.

    Blocks are already the scheduling granularity (one replication batch
    of one base model), so there is no chunking layer: each cache-missing
    block dispatches as one unit of work to the selected backend.  The
    same content-addressed cache serves hits — a block's key covers its
    seed and block index, so cached samples are bit-identical to a fresh
    simulation.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    outcomes: dict[int, TaskOutcome] = {}
    pending: list[tuple[int, VerificationTask]] = []
    for position, task in enumerate(tasks):
        record = cache.get(task) if cache is not None else None
        if record is not None:
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=0.0, cached=True
            )
        else:
            pending.append((position, task))

    if backend == "serial" or jobs == 1 or len(pending) <= 1:
        solved = [_simulate_verify_block(task) for _, task in pending]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_simulate_verify_block, task) for _, task in pending
            ]
            solved = [future.result() for future in futures]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_simulate_verify_block, task) for _, task in pending
            ]
            solved = [future.result() for future in futures]

    for (position, task), (record, seconds) in zip(pending, solved):
        if cache is not None:
            cache.put(task, record)
        outcomes[position] = TaskOutcome(
            task=task, record=record, seconds=seconds, cached=False
        )

    return [outcomes[position] for position in range(len(tasks))]


def _solve_surrogate_node(task: SurrogateFitTask) -> tuple[dict, float]:
    """Module-level fit-node worker (picklable for the process pool).

    One batched :meth:`ConstituentSolver.batch` pass over the node's phi
    grid — the same arithmetic the campaign path uses, so fit nodes and
    sweep points agree bitwise where grids coincide.
    """
    from repro.runtime.spec import params_to_dict

    solver = ConstituentSolver(task.params)
    start = time.perf_counter()
    constituents = solver.batch(list(task.phis))
    record = {
        "kind": "surrogate.node",
        "params": params_to_dict(task.params),
        "phis": [float(phi) for phi in task.phis],
        "constituents": constituents,
    }
    return record, time.perf_counter() - start


def execute_surrogate_tasks(
    tasks: Sequence[SurrogateFitTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[TaskOutcome]:
    """Execute surrogate fit nodes and return outcomes in submission order.

    A node is already chunk-sized work (one batched grid solve at one
    lever point), so like verification blocks there is no extra chunking
    layer; each cache-missing node dispatches as one unit.  Fitting is
    therefore cached, parallel, and resumable for free: re-running a fit
    whose nodes are cached touches no solver at all.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    outcomes: dict[int, TaskOutcome] = {}
    pending: list[tuple[int, SurrogateFitTask]] = []
    for position, task in enumerate(tasks):
        record = cache.get(task) if cache is not None else None
        if record is not None:
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=0.0, cached=True
            )
        else:
            pending.append((position, task))

    if backend == "serial" or jobs == 1 or len(pending) <= 1:
        solved = [_solve_surrogate_node(task) for _, task in pending]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_solve_surrogate_node, task)
                for _, task in pending
            ]
            solved = [future.result() for future in futures]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_solve_surrogate_node, task)
                for _, task in pending
            ]
            solved = [future.result() for future in futures]

    for (position, task), (record, seconds) in zip(pending, solved):
        if cache is not None:
            cache.put(task, record)
        outcomes[position] = TaskOutcome(
            task=task, record=record, seconds=seconds, cached=False
        )

    return [outcomes[position] for position in range(len(tasks))]


def _solve_fleet_chunk(
    params: FleetParameters,
    mode: str,
    phis: tuple[float, ...],
) -> list[tuple[dict, float]]:
    """Module-level fleet chunk worker (picklable for the process pool).

    One :class:`FleetSolver` per chunk: the chain is built once and both
    measures for every unique phi come from one fused solve.
    """
    solver = FleetSolver(params, mode=mode)
    start = time.perf_counter()
    values = solver.batch(phis)
    per_point = (time.perf_counter() - start) / max(len(values), 1)
    records = []
    for phi, measures in zip(phis, values):
        records.append(
            (
                {
                    "kind": "fleet.Y",
                    "params": params.to_dict(),
                    "phi": float(phi),
                    "mode": mode,
                    "Y": measures["Y"],
                    "operational_time": measures["operational_time"],
                    "states": (
                        params.flat_states
                        if mode == "flat"
                        else params.lumped_states
                    ),
                },
                per_point,
            )
        )
    return records


def execute_fleet_tasks(
    tasks: Sequence[FleetTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
) -> list[TaskOutcome]:
    """Execute fleet tasks and return outcomes in submission order.

    Mirrors :func:`execute_tasks` — cache probe, group by (params,
    mode), chunk, dispatch — with one difference: chunk sizing is
    *memory-aware*.  Flat fleet models materialise a grid-rows block of
    ``points x 4**N`` doubles per chunk, so the chunk length is capped
    to keep all in-flight chunks inside :func:`memory_budget_bytes`
    (override with ``REPRO_MEMORY_BUDGET_MB``).  An explicit
    ``chunk_size`` always wins.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    outcomes: dict[int, TaskOutcome] = {}
    pending: list[tuple[int, FleetTask]] = []
    for position, task in enumerate(tasks):
        record = cache.get(task) if cache is not None else None
        if record is not None:
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=0.0, cached=True
            )
        else:
            pending.append((position, task))

    groups: dict[tuple[FleetParameters, str], list[tuple[int, FleetTask]]] = {}
    for position, task in pending:
        groups.setdefault((task.params, task.mode), []).append(
            (position, task)
        )

    chunks: list[list[tuple[int, FleetTask]]] = []
    for (params, mode), group in groups.items():
        num_states = params.flat_states if mode == "flat" else params.lumped_states
        length = _memory_aware_chunk_length(
            len(group), jobs, chunk_size, num_states, workers=jobs
        )
        chunks.extend(
            group[start : start + length]
            for start in range(0, len(group), length)
        )

    def _chunk_args(chunk):
        task = chunk[0][1]
        return task.params, task.mode, tuple(t.phi for _, t in chunk)

    if backend == "serial" or jobs == 1 or len(chunks) <= 1:
        solved = [_solve_fleet_chunk(*_chunk_args(chunk)) for chunk in chunks]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_solve_fleet_chunk, *_chunk_args(chunk))
                for chunk in chunks
            ]
            solved = [future.result() for future in futures]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_solve_fleet_chunk, *_chunk_args(chunk))
                for chunk in chunks
            ]
            solved = [future.result() for future in futures]

    for chunk, results in zip(chunks, solved):
        for (position, task), (record, seconds) in zip(chunk, results):
            if cache is not None:
                cache.put(task, record)
            outcomes[position] = TaskOutcome(
                task=task, record=record, seconds=seconds, cached=False
            )

    return [outcomes[position] for position in range(len(tasks))]
