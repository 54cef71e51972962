"""Expected accumulated (interval-of-time) rewards.

Solves ``E[Y(t)] = E[int_0^t r(X_u) du]`` — the reward type used by the
paper for the mean-time-to-detection constituent measure
``int_0^phi tau h(tau) dtau`` (Table 1, row 2), where states in ``A2'``
carry rate +1 and absorbing failure states in ``A4'`` carry rate -1.

Backends:

* ``"uniformization"`` — integrated uniformization through the one
  Jensen walk (:func:`repro.ctmc.uniformization.uniformization_grid`);
  cost linear in ``Lambda * t``, budget-admitted and certified.
* ``"augmented-expm"`` — the augmented-generator trick: with
  ``A = [[Q, r], [0, 0]]`` the last component of ``[pi(0), 0] expm(A t)``
  is exactly ``int_0^t pi(u) r du``.  One dense matrix exponential,
  stiffness-independent — required for the paper's 1e4-hour horizons.
* ``"augmented-krylov"`` — the same augmented-generator trick kept
  sparse: one ``expm_multiply`` action of the CSR augmented matrix.
  ``O(nnz)`` memory and no term bound (its cost still grows with the
  augmented matrix's ``||A t||_1``) — the stiff large-chain workhorse
  above ``DENSE_STATE_LIMIT``.
* ``"quadrature"`` — adaptive quadrature over the transient solution
  (slow; cross-validation only).
* ``"auto"`` — uniformization when non-stiff; otherwise augmented expm
  within the dense limit and augmented Krylov beyond it
  (:func:`repro.ctmc.config.auto_method`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.transient import transient_distribution
from repro.ctmc.uniformization import _validate_time_grid, uniformization_grid

#: Supported accumulated-reward solver backends.
ACCUMULATED_METHODS = (
    "uniformization",
    "augmented-expm",
    "augmented-krylov",
    "quadrature",
    "auto",
)

#: Supported grid solver backends (see :func:`accumulated_grid`).
ACCUMULATED_GRID_METHODS = (
    "auto",
    "uniformization",
    "augmented-expm",
    "augmented-krylov",
    "quadrature",
)


def _augmented_sparse(chain: CTMC, rewards: np.ndarray) -> sp.csr_matrix:
    """The augmented generator ``[[Q, r], [0, 0]]`` assembled in CSR.

    Built from the generator's own CSR triplets — no dense round-trip,
    so it works at any state count.
    """
    q = chain.generator.tocoo()
    n = chain.num_states
    nz = np.nonzero(rewards)[0]
    rows = np.concatenate([q.row, nz])
    cols = np.concatenate([q.col, np.full(nz.size, n, dtype=q.col.dtype)])
    data = np.concatenate([q.data, rewards[nz]])
    return sp.csr_matrix((data, (rows, cols)), shape=(n + 1, n + 1))


def accumulated_reward(
    chain: CTMC,
    rewards,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> float:
    """Expected reward accumulated by ``chain`` over ``[0, t]``.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    rewards:
        Per-state reward rates (may be negative — the paper's
        mean-time-to-detection measure uses a -1 rate on undetected
        failure states).
    t:
        Interval length.
    method:
        ``"uniformization"`` (integrated uniformization, default) or
        ``"quadrature"`` (adaptive quadrature over the transient solution;
        slower, used for cross-validation in tests and ablations).
    """
    if method not in ACCUMULATED_METHODS:
        raise CTMCError(
            f"unknown accumulated method {method!r}; expected one of {ACCUMULATED_METHODS}"
        )
    if t < 0:
        raise CTMCError(f"time must be non-negative, got {t}")
    r = validate_rewards(rewards, chain.num_states)
    if t == 0.0:
        return 0.0
    if method == "auto":
        method = config.auto_method(chain, t, accumulated=True)
    if method == "uniformization":
        config.record_dispatch("uniformization")
        result = uniformization_grid(
            chain.generator,
            chain.initial_distribution,
            [t],
            rewards=r,
            tolerance=tolerance,
        )
        return float(result.accumulated[0])
    if method == "augmented-expm":
        config.record_dispatch("augmented-expm")
        return _augmented_expm(chain, r, t)
    if method == "augmented-krylov":
        config.record_dispatch("augmented-krylov")
        return _augmented_krylov(chain, r, t)
    config.record_dispatch("quadrature")

    def integrand(u: float) -> float:
        return float(transient_distribution(chain, u) @ r)

    value, _abserr = quad(integrand, 0.0, t, limit=200)
    return float(value)


def _augmented_expm(chain: CTMC, rewards: np.ndarray, t: float) -> float:
    """Accumulated reward via the augmented generator ``[[Q, r], [0, 0]]``.

    The augmented system evolves ``(pi(t), y(t))`` with
    ``y'(t) = pi(t) . r``, so ``y(t)`` is exactly the accumulated reward.
    """
    n = chain.num_states
    limit = config.limits().dense_state_limit
    if n >= limit:
        raise CTMCError(
            f"augmented-expm limited to {limit} states; chain has {n}"
        )
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = chain.generator.toarray()
    a[:n, n] = rewards
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    result = state @ dense_expm(a * t)
    return float(result[n])


def _augmented_krylov(chain: CTMC, rewards: np.ndarray, t: float) -> float:
    """Sparse accumulated reward: one Krylov action of ``[[Q, r], [0, 0]]``.

    ``state @ expm(A t)`` is evaluated as ``expm_multiply(A^T t, state)``
    on the CSR augmented generator — no densification, so this is the
    path large composed fleets take for interval-of-time rewards.
    """
    n = chain.num_states
    a = _augmented_sparse(chain, rewards)
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    result = expm_multiply(a.T.tocsr() * t, state)
    return float(result[n])


def accumulated_grid(
    chain: CTMC,
    rewards,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Accumulated rewards ``E[Y(times[j])]`` for a whole time grid.

    The grid is deduplicated up front, then the unique points are served
    by one of four strategies:

    * ``"uniformization"`` — one incremental integrated-uniformization
      pass (:func:`~repro.ctmc.uniformization.uniformization_grid`).
      Sparse, no state limit; cost grows with ``Lambda * times[-1]``.
    * ``"augmented-expm"`` — an independent dense augmented-generator
      exponential per unique point; arithmetic identical to the scalar
      :func:`accumulated_reward` augmented branch.  Stiffness-
      independent.
    * ``"augmented-krylov"`` — segment-stepped sparse Krylov actions of
      the CSR augmented generator; ``O(nnz)`` memory, the backend stiff
      large composed fleets dispatch to.
    * ``"quadrature"`` — independent per-point quadrature
      (cross-validation only).

    ``"auto"`` mirrors the scalar dispatch against ``times[-1]``.
    Returns an array of shape ``(len(times),)``.
    """
    grid = _validate_time_grid(times)
    if method not in ACCUMULATED_GRID_METHODS:
        raise CTMCError(
            f"unknown accumulated grid method {method!r}; expected one of "
            f"{ACCUMULATED_GRID_METHODS}"
        )
    r = validate_rewards(rewards, chain.num_states)
    unique, inverse = np.unique(grid, return_inverse=True)
    if method == "auto":
        method = config.auto_method(chain, float(unique[-1]), accumulated=True)
    if method == "uniformization":
        config.record_dispatch("uniformization")
        out = uniformization_grid(
            chain.generator,
            chain.initial_distribution,
            unique,
            rewards=r,
            tolerance=tolerance,
        ).accumulated
    elif method == "augmented-expm":
        config.record_dispatch("augmented-expm", n=max(int(unique.size), 1))
        out = np.array([_augmented_expm(chain, r, float(t)) for t in unique])
    elif method == "augmented-krylov":
        config.record_dispatch("augmented-krylov")
        out = _augmented_krylov_grid(chain, r, unique)[1]
    else:
        config.record_dispatch("quadrature")
        out = np.array(
            [
                accumulated_reward(chain, r, float(t), method="quadrature")
                for t in unique
            ]
        )
    return out[inverse]


def _augmented_krylov_grid(
    chain: CTMC, rewards: np.ndarray, unique: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step the sparse augmented state along the grid with Krylov actions.

    ``(pi(t), y(t))`` advances segment-to-segment — one ``expm_multiply``
    per distinct segment length — so the whole curve costs one pass, and
    memory stays ``O(nnz + n)``.  Returns ``(pi_rows, accumulated)``; the
    fused transient+accumulated grid solver reuses both.
    """
    n = chain.num_states
    at = _augmented_sparse(chain, rewards).T.tocsr()
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    rows = np.empty((unique.size, n))
    acc = np.empty(unique.size)
    prev = 0.0
    for k, t in enumerate(unique):
        dt = float(t) - prev
        if dt > 0.0:
            state = expm_multiply(at * dt, state)
        row = np.clip(state[:n], 0.0, None)
        total = row.sum()
        if total > 0:
            row = row / total
        # Keep the carried state normalised too: the augmented walk only
        # drifts by round-off, and renormalising stops it compounding.
        state[:n] = row
        rows[k] = row
        acc[k] = state[n]
        prev = float(t)
    return rows, acc


#: Methods supported by the fused transient+accumulated grid solver.
TRANSIENT_ACCUMULATED_GRID_METHODS = (
    "auto",
    "uniformization",
    "augmented-expm",
    "augmented-krylov",
)


def transient_accumulated_grid(
    chain: CTMC,
    rewards,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Transient distributions *and* accumulated rewards, one pass.

    Returns ``(pi_grid, accumulated)`` where ``pi_grid[j]`` is the state
    distribution at ``times[j]`` and ``accumulated[j]`` the reward
    integral over ``[0, times[j]]``.  Both come from a single solver
    pass per unique time point:

    * ``"augmented-expm"`` — the augmented generator
      ``A = [[Q, r], [0, 0]]`` is block upper-triangular, so
      ``expm(A t)`` embeds ``expm(Q t)`` as its leading block; one dense
      exponential per unique point yields the distribution row and the
      integral together, at the cost the scalar path pays for the
      integral alone.
    * ``"uniformization"`` — the incremental integrated-uniformization
      walk already carries ``pi`` between segments; this returns it.

    ``"auto"`` mirrors :func:`accumulated_grid`'s dispatch.  This is the
    solver behind the GSU batch path, where the same ``RMGd`` grid
    serves three instant measures plus the accumulated one.
    """
    grid = _validate_time_grid(times)
    if method not in TRANSIENT_ACCUMULATED_GRID_METHODS:
        raise CTMCError(
            f"unknown transient+accumulated grid method {method!r}; expected "
            f"one of {TRANSIENT_ACCUMULATED_GRID_METHODS}"
        )
    r = validate_rewards(rewards, chain.num_states)
    unique, inverse = np.unique(grid, return_inverse=True)
    if method == "auto":
        method = config.auto_method(chain, float(unique[-1]), accumulated=True)
    if method == "uniformization":
        config.record_dispatch("uniformization")
        result = uniformization_grid(
            chain.generator,
            chain.initial_distribution,
            unique,
            rewards=r,
            tolerance=tolerance,
        )
        rows, acc = result.rows, result.accumulated
    elif method == "augmented-krylov":
        config.record_dispatch("augmented-krylov")
        rows, acc = _augmented_krylov_grid(chain, r, unique)
    else:
        n = chain.num_states
        limit = config.limits().dense_state_limit
        if n >= limit:
            raise CTMCError(
                f"augmented-expm limited to {limit} states; chain has {n}"
            )
        config.record_dispatch("augmented-expm", n=max(int(unique.size), 1))
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = chain.generator.toarray()
        a[:n, n] = r
        state = np.zeros(n + 1)
        state[:n] = chain.initial_distribution
        rows = np.empty((unique.size, n))
        acc = np.empty(unique.size)
        for k, t in enumerate(unique):
            if t == 0.0:
                rows[k] = state[:n]
                acc[k] = 0.0
                continue
            result = state @ dense_expm(a * float(t))
            acc[k] = result[n]
            row = np.clip(result[:n], 0.0, None)
            total = row.sum()
            if total > 0:
                row = row / total
            rows[k] = row
    return rows[inverse], acc[inverse]


def averaged_interval_reward(
    chain: CTMC,
    rewards,
    t: float,
    method: str = "uniformization",
) -> float:
    """Time-averaged interval-of-time reward ``E[Y(t)] / t``."""
    if t <= 0:
        raise CTMCError(f"interval length must be positive, got {t}")
    return accumulated_reward(chain, rewards, t, method=method) / t


def time_in_set(chain: CTMC, states, t: float) -> float:
    """Expected total time spent in a state set during ``[0, t]``.

    ``states`` may contain integer indices or labels.
    """
    indicator = np.zeros(chain.num_states)
    for s in states:
        idx = s if isinstance(s, (int, np.integer)) else chain.state_index(s)
        indicator[idx] = 1.0
    return accumulated_reward(chain, indicator, t)
