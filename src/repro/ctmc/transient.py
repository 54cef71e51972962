"""Transient (instant-of-time) solutions and rewards.

The primary entry points are :func:`transient_distribution` and
:func:`instant_of_time_reward`.  Five backends are available:

* ``"uniformization"`` — Jensen's method with Fox–Glynn truncation
  (:func:`repro.ctmc.uniformization.uniformization_grid`; a scalar
  solve is the one-point grid).  Cost grows linearly with
  ``Lambda * t``, so it suits non-stiff problems.  Sparse with no
  state-count limit; every solve is admitted against
  ``REPRO_MEMORY_BUDGET_MB``, its Fox–Glynn windows are bounded by
  ``MAX_UNIFORMIZATION_TERMS`` (a stiff problem fails fast instead of
  walking millions of matvecs), and it carries a certified truncation
  bound.
* ``"expm"`` / ``"krylov"`` — the action of the matrix exponential via
  ``scipy.sparse.linalg.expm_multiply``: Al-Mohy & Higham's truncated
  Taylor method with scaling (the label ``krylov`` is historical; no
  Krylov subspace is built).  Sparse, ``O(nnz)`` memory and no term
  bound; the backend ``auto`` picks for stiff chains too large to
  densify.  It is *not* stiffness-independent: the number of scaling
  steps, and so of matvecs, grows with ``||Q t||_1``.  As a grid method
  ``"krylov"`` steps segment-to-segment instead of restarting from
  ``t = 0`` per point.
* ``"dense-expm"`` — dense Padé + scaling-and-squaring
  (``scipy.linalg.expm``).  Cost is ``O(n^3 log(Lambda t))`` —
  essentially independent of stiffness, which matters for the paper's
  models where message rates (1200/h) and fault rates (1e-4/h) differ by
  seven orders of magnitude over 1e4-hour horizons.  Limited to
  ``DENSE_STATE_LIMIT`` states: dense is the small-model special case,
  CSR is the native representation everywhere else.
* ``"spectral"`` — one eigendecomposition of ``Q``, then each time is an
  independent ``O(n^2)`` evaluation.  Stiffness-independent and far
  cheaper than repeated Padé exponentials on tiny chains; limited to
  ``SPECTRAL_STATE_LIMIT`` states and falls back to dense expm on
  defective or ill-conditioned generators.
* ``"auto"`` — uniformization when ``Lambda * t`` is small; for stiff
  problems, spectral on tiny chains, dense expm within the dense limit,
  and sparse Krylov beyond it (the default used by the GSU measures).
  The rule is :func:`repro.ctmc.config.auto_method`, shared by every
  scalar and grid solver.

All dispatch cutoffs live in :mod:`repro.ctmc.config` (with env-var
overrides); every solve records its backend there so the serving layer
can expose dense/sparse/uniformization dispatch counts.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.config import (  # noqa: F401  (re-exported compatibility names)
    AUTO_STIFFNESS_THRESHOLD,
    DENSE_STATE_LIMIT,
    SPECTRAL_CONDITION_LIMIT,
    SPECTRAL_STATE_LIMIT,
)
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.uniformization import _validate_time_grid, uniformization_grid

#: Supported transient solver backends.
TRANSIENT_METHODS = (
    "uniformization",
    "expm",
    "dense-expm",
    "spectral",
    "auto",
)

#: Supported grid solver backends (see :func:`transient_grid`).
TRANSIENT_GRID_METHODS = (
    "auto",
    "uniformization",
    "dense-expm",
    "spectral",
    "expm",
    "krylov",
)


def transient_distribution(
    chain: CTMC,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """State probability vector ``pi(t)`` of ``chain`` at time ``t``.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    t:
        Non-negative time horizon.
    method:
        ``"uniformization"`` (default; Fox–Glynn truncated Jensen series)
        or ``"expm"`` (Krylov/scaling-and-squaring action of the matrix
        exponential, used for cross-validation), or any other entry of
        :data:`TRANSIENT_METHODS`.
    tolerance:
        Truncation tolerance for the uniformization backend.
    """
    if method not in TRANSIENT_METHODS:
        raise CTMCError(
            f"unknown transient method {method!r}; expected one of {TRANSIENT_METHODS}"
        )
    if t < 0:
        raise CTMCError(f"time must be non-negative, got {t}")
    pi0 = chain.initial_distribution
    if t == 0.0:
        return pi0
    if method == "auto":
        method = config.auto_method(chain, t)
    if method == "uniformization":
        config.record_dispatch("uniformization")
        return uniformization_grid(
            chain.generator, pi0, [t], tolerance=tolerance
        ).rows[0]
    if method == "spectral":
        rows = _spectral_rows(chain, np.array([t]))
        if rows is not None:
            config.record_dispatch("spectral")
            return rows[0]
        method = "dense-expm"
    if method == "dense-expm":
        _check_dense(chain)
        config.record_dispatch("dense-expm")
        result = pi0 @ dense_expm(chain.generator.toarray() * t)
    else:
        # "expm" (or "krylov" from auto):
        # pi(t) = pi(0) exp(Q t)  ==  (exp(Q^T t) pi(0)^T)^T
        config.record_dispatch("krylov")
        result = expm_multiply(chain.generator.T.tocsc() * t, pi0)
    result = np.clip(result, 0.0, None)
    total = result.sum()
    if total > 0:
        result = result / total
    return result


def _spectral_rows(chain: CTMC, unique: np.ndarray) -> np.ndarray | None:
    """``pi(t)`` rows per unique time via one eigendecomposition.

    ``pi(t) = pi(0) V e^{diag(w) t} V^{-1}`` with ``Q = V diag(w) V^{-1}``.
    Every time point is an *independent* evaluation from the same
    factorisation, so results do not depend on which other times ride
    along in the grid — the scalar path and any grid containing ``t``
    produce bitwise-identical values.  Returns ``None`` when the chain
    is too large, the generator is defective, or the eigenvector matrix
    is ill-conditioned; callers then fall back to dense expm.
    """
    lim = config.limits()
    n = chain.num_states
    if n > lim.spectral_state_limit:
        return None
    q = chain.generator.toarray()
    w, v = np.linalg.eig(q)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if (
        not np.all(np.isfinite(vinv))
        or np.linalg.cond(v) > lim.spectral_condition_limit
    ):
        return None
    pi0 = chain.initial_distribution
    coeff = pi0.astype(complex) @ v
    out = np.empty((unique.size, n))
    for k, t in enumerate(unique):
        if t == 0.0:
            out[k] = pi0
            continue
        row = np.real((coeff * np.exp(w * float(t))) @ vinv)
        row = np.clip(row, 0.0, None)
        total = row.sum()
        if total > 0:
            row = row / total
        out[k] = row
    return out


def _check_dense(chain: CTMC) -> None:
    limit = config.limits().dense_state_limit
    if chain.num_states > limit:
        raise CTMCError(
            f"dense-expm limited to {limit} states; chain has "
            f"{chain.num_states}"
        )


def transient_grid(
    chain: CTMC,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Transient distributions at every point of a time grid, batched.

    The grid is deduplicated up front (repeated time points are solved
    once and broadcast back), then the unique points are served by one of
    four strategies:

    * ``"uniformization"`` — one incremental Fox–Glynn pass across the
      whole grid (:func:`~repro.ctmc.uniformization.uniformization_grid`).
      Sparse; no state-count limit; non-uniform grids included.  Cost
      grows with ``Lambda * times[-1]``, so it suits non-stiff problems.
    * ``"krylov"`` — segment-stepped sparse ``expm_multiply`` actions.
      ``O(nnz)`` memory and no term bound; cost grows with
      ``||Q dt||_1``.  The workhorse for stiff chains above the dense
      limit.
    * ``"dense-expm"`` — an independent dense ``expm(Q t)`` per unique
      point; arithmetic identical to the scalar
      :func:`transient_distribution` dense branch.  Stiffness-
      independent; dense state limit applies.
    * ``"expm"`` — an independent Krylov ``expm_multiply`` per point
      from ``t = 0`` (cross-validation backend).

    ``"auto"`` (the default) applies :func:`repro.ctmc.config.auto_method`
    at ``times[-1]``: uniformization when non-stiff, otherwise spectral,
    dense-expm or the sparse Krylov stepper by size.  Returns an array of shape
    ``(len(times), num_states)``.
    """
    grid = _validate_time_grid(times)
    if method not in TRANSIENT_GRID_METHODS:
        raise CTMCError(
            f"unknown transient grid method {method!r}; expected one of "
            f"{TRANSIENT_GRID_METHODS}"
        )
    unique, inverse = np.unique(grid, return_inverse=True)
    if method == "auto":
        method = config.auto_method(chain, float(unique[-1]))
    if method == "uniformization":
        config.record_dispatch("uniformization")
        out = uniformization_grid(
            chain.generator,
            chain.initial_distribution,
            unique,
            tolerance=tolerance,
        ).rows
    elif method == "spectral":
        out = _spectral_rows(chain, unique)
        if out is None:
            out = _dense_expm_grid(chain, unique)
        else:
            config.record_dispatch("spectral")
    elif method == "dense-expm":
        out = _dense_expm_grid(chain, unique)
    elif method == "krylov":
        config.record_dispatch("krylov")
        out = _krylov_grid(chain, unique)
    else:
        out = np.empty((unique.size, chain.num_states))
        for k, t in enumerate(unique):
            out[k] = transient_distribution(chain, float(t), method="expm")
    return out[inverse]


def _dense_expm_grid(chain: CTMC, unique: np.ndarray) -> np.ndarray:
    """One dense expm per unique time — scalar-identical arithmetic."""
    _check_dense(chain)
    config.record_dispatch("dense-expm", n=max(int(unique.size), 1))
    pi0 = chain.initial_distribution
    out = np.empty((unique.size, chain.num_states))
    for k, t in enumerate(unique):
        if t == 0.0:
            out[k] = pi0
            continue
        row = pi0 @ dense_expm(chain.generator.toarray() * float(t))
        row = np.clip(row, 0.0, None)
        total = row.sum()
        if total > 0:
            row = row / total
        out[k] = row
    return out


def _krylov_grid(chain: CTMC, unique: np.ndarray) -> np.ndarray:
    """Segment-stepped sparse Krylov actions along the grid.

    ``pi(t_{j+1}) = pi(t_j) exp(Q dt_j)`` with each step one
    ``expm_multiply`` on the transposed CSR generator — memory stays
    ``O(nnz + n)`` regardless of state count.  ``expm_multiply`` is
    Al-Mohy & Higham's truncated Taylor method with scaling, not a
    Krylov subspace method, and its cost is not independent of
    stiffness: the number of scaling steps (each a run of matvecs)
    grows with ``||Q dt||_1``.  Uniform grids collapse into a *single*
    ``expm_multiply`` call over the whole grid (scipy evaluates all the
    equally spaced endpoints from one Krylov decomposition per step).
    """
    at = chain.generator.T.tocsr()
    pi0 = chain.initial_distribution
    n = chain.num_states
    out = np.empty((unique.size, n))

    start = 0
    if unique[0] == 0.0:
        out[0] = pi0
        start = 1
    if start >= unique.size:
        return out
    positive = unique[start:]
    diffs = np.diff(np.concatenate(([0.0], positive)))
    # Uniform spacing from t=0: one multi-endpoint Krylov evaluation.
    if positive.size > 1 and np.allclose(
        diffs, diffs[0], rtol=1e-12, atol=0.0
    ):
        rows = expm_multiply(
            at,
            pi0,
            start=float(positive[0]),
            stop=float(positive[-1]),
            num=int(positive.size),
            endpoint=True,
        )
        rows = np.atleast_2d(rows)
        for k in range(positive.size):
            out[start + k] = _renormalise(rows[k])
        return out
    vec = pi0.copy()
    prev = 0.0
    for k, t in enumerate(positive):
        dt = float(t) - prev
        if dt > 0.0:
            vec = expm_multiply(at * dt, vec)
            vec = _renormalise(vec)
        out[start + k] = vec
        prev = float(t)
    return out


def _renormalise(row: np.ndarray) -> np.ndarray:
    """Clip tiny negatives and renormalise a probability row."""
    row = np.clip(row, 0.0, None)
    total = row.sum()
    if total > 0:
        row = row / total
    return row


def instant_of_time_reward(
    chain: CTMC,
    rewards,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> float:
    """Expected instant-of-time reward ``E[r(X_t)] = pi(t) . r``.

    ``rewards`` is a per-state reward-rate vector.  This is the solver
    behind every ``"expected instant-of-time reward at phi"`` entry in the
    paper's Tables 1 and 2.
    """
    r = validate_rewards(rewards, chain.num_states)
    pi_t = transient_distribution(chain, t, method=method, tolerance=tolerance)
    return float(pi_t @ r)


def probability_in_set(
    chain: CTMC,
    states,
    t: float,
    method: str = "uniformization",
) -> float:
    """``P(X_t in A)`` for a set of state indices or labels.

    ``states`` may contain integer indices or, when the chain is labelled,
    state labels.
    """
    indicator = np.zeros(chain.num_states)
    for s in states:
        idx = s if isinstance(s, (int, np.integer)) else chain.state_index(s)
        indicator[idx] = 1.0
    return instant_of_time_reward(chain, indicator, t, method=method)
