"""Uniformization (Jensen's method) with Fox–Glynn Poisson truncation.

Uniformization converts the transient solution of a CTMC into a weighted
sum of DTMC powers:

    pi(t) = sum_{k=0}^inf  PoissonPMF(k; Lambda * t) * pi(0) P^k

where ``P = I + Q / Lambda`` is the uniformized DTMC and ``Lambda`` is any
rate at least the largest exit rate.  The Fox–Glynn algorithm computes the
Poisson weights stably and picks truncation points so the neglected mass
is below a requested tolerance.

This is the transient engine used by UltraSAN/Möbius-style tools and the
one this reproduction relies on for every instant-of-time constituent
measure.  :func:`uniformization_grid` is the package's only Jensen walk:
every ``"uniformization"`` solve — scalar or grid, transient or
accumulated, ten states or ten million — runs through it, with

* **Preallocated workspaces** — four state vectors
  (:class:`UniformizationWorkspace`) allocated once per call (or once
  per caller that keeps the workspace).  The inner step performs **no
  O(n) allocation**: the matvec writes into a workspace buffer through
  scipy's ``csr_matvec`` kernel (per-step-allocating fallback if the
  private kernel is unavailable, flagged on the certificate).
* **No uniformized matrix** — the step is ``y = x + (Q^T x) / L`` on
  the transposed generator, so the only matrix copy is the transpose.
* **Budget admission** — the solve refuses to start if workspaces +
  transposed generator + result rows exceed
  :func:`repro.ctmc.config.memory_budget_bytes`
  (``REPRO_MEMORY_BUDGET_MB``).  The budget never affects the
  arithmetic: results are bitwise identical across any budget large
  enough to admit the solve.
* **Bounded truncation** — every segment's Fox–Glynn window is planned
  and checked against ``MAX_UNIFORMIZATION_TERMS`` before the first
  matvec, so a stiff request fails fast instead of walking millions of
  terms.
* **Certified error accounting** — every solve carries a
  :class:`TruncationCertificate` bounding the L1 error of the
  distribution rows and the absolute error of accumulated rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, pdtr, pdtrc, pdtrik, xlogy

from repro.ctmc import config
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import as_csr, uniformization_rate, validate_generator

try:  # pragma: no cover - exercised implicitly by every uniformization test
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVEC = _st.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _CSR_MATVEC = None

#: Whether the zero-allocation CSR matvec kernel is available.
ALLOCATION_FREE_KERNEL = _CSR_MATVEC is not None


@dataclass(frozen=True)
class PoissonWindow:
    """Truncated Poisson weights from Fox–Glynn.

    Attributes
    ----------
    left:
        First retained term index ``L``.
    right:
        Last retained term index ``R`` (inclusive).
    weights:
        ``weights[k - left]`` approximates ``PoissonPMF(k; m)`` for
        ``left <= k <= right``; the weights sum to at most 1 and to at
        least ``1 - tolerance``.
    mean:
        The Poisson mean ``m = Lambda * t`` the window was built for.
    """

    left: int
    right: int
    weights: np.ndarray
    mean: float

    @property
    def total_mass(self) -> float:
        """Sum of retained weights (``>= 1 - tolerance``)."""
        return float(self.weights.sum())

    @property
    def truncated_mass(self) -> float:
        """Poisson mass outside ``[left, right]`` — the left *and* right
        truncation error combined.  The L1 error of the renormalised
        Jensen sum is at most ``2 * truncated_mass`` (one factor for the
        dropped terms, one for scaling the retained ones up by
        ``1 / total_mass``)."""
        return max(0.0, 1.0 - self.total_mass)


def _poisson_quantile(q: float, mean: float) -> int:
    """Smallest ``k`` with ``Poisson(mean).cdf(k) >= q``, for ``0 < q < 1``.

    ``pdtrik`` inverts the cdf continuously; rounding it up can land one
    past the discrete quantile, so the step below is checked against
    ``pdtr`` — the same correction ``scipy.stats.poisson.ppf`` applies.
    """
    k = math.ceil(pdtrik(q, mean))
    below = max(k - 1, 0)
    return below if pdtr(below, mean) >= q else k


def poisson_excess_mean(mean: float, m: int) -> float:
    """``E[(N - m)^+]`` for ``N ~ Poisson(mean)``, in closed form.

    Uses the identity ``k * pmf(k) = mean * pmf(k - 1)``:

        E[(N - m)^+] = mean * sf(m - 1) - m * sf(m)

    This is exactly the tail ``sum_{k >= m} sf(k)`` of the Poisson
    survival series — the quantity the integrated-uniformization
    truncation neglects — so it certifies the accumulated-reward
    accrual error: truncating the survival series after term ``R``
    leaves an absolute error of at most
    ``(max|r| / Lambda) * poisson_excess_mean(mean, R + 1)``.
    """
    if m <= 0:
        return float(mean)
    return float(max(0.0, mean * pdtrc(m - 1, mean) - m * pdtrc(m, mean)))


def accrual_right_point(mean: float, tolerance: float) -> int:
    """Truncation point of the Poisson *survival* series for accrual.

    Picks the smallest practical ``R`` such that the neglected tail
    ``sum_{k > R} sf(k) = E[(N - R - 1)^+]`` is below
    ``tolerance * max(mean, 1)``.  Dividing by ``Lambda`` (the series
    prefactor) this bounds the accumulated-reward error by
    ``tolerance * max|r| * max(t, 1 / Lambda)`` — a *scale-relative*
    bound, unlike the old ``sf(R) < tolerance`` criterion, which only
    bounded the first neglected term and silently under-reported the
    accrued tail for long horizons.
    """
    tolerance = max(tolerance, 1e-15)
    right = _poisson_quantile(1.0 - tolerance, mean)
    target = tolerance * max(mean, 1.0)
    while poisson_excess_mean(mean, right + 1) > target:
        right += 1
    return right


def fox_glynn_weights(mean: float, tolerance: float = 1e-12) -> PoissonWindow:
    """Compute truncated Poisson(``mean``) weights.

    For numerical robustness the probability mass function is evaluated
    in log space, ``exp(k log(mean) - log(k!) - mean)`` through
    :mod:`scipy.special`, rather than via the classical recurrence; the
    *truncation-point selection* follows Fox–Glynn: centre the window on
    the mode and expand until the captured mass reaches
    ``1 - tolerance``.  Windows and weights are bitwise those of a
    frozen ``scipy.stats.poisson``, without the cost of building one.

    Parameters
    ----------
    mean:
        The Poisson mean ``Lambda * t`` (must be non-negative).
    tolerance:
        Upper bound on the total neglected probability mass.  Values
        below 1e-12 are clamped: summing thousands of pmf terms in
        double precision cannot guarantee tighter mass capture.
    """
    if mean < 0:
        raise CTMCError(f"Poisson mean must be non-negative, got {mean}")
    tolerance = max(tolerance, 1e-12)
    if mean == 0.0:
        return PoissonWindow(left=0, right=0, weights=np.array([1.0]), mean=0.0)

    # Quantile-based truncation: captured mass outside [left, right] is
    # below tolerance by construction of the inverse CDF.
    left = _poisson_quantile(tolerance / 2.0, mean)
    right = _poisson_quantile(1.0 - tolerance / 2.0, mean)
    # Guard: the quantile can be conservative for tiny means; widen
    # until the mass criterion provably holds.
    while left > 0 and pdtr(left - 1, mean) > tolerance / 2.0:
        left -= 1
    while pdtrc(right, mean) > tolerance / 2.0:
        right += 1
    ks = np.arange(left, right + 1)
    weights = np.exp(xlogy(ks, mean) - gammaln(ks + 1) - mean)
    return PoissonWindow(left=left, right=right, weights=weights, mean=mean)


def uniformize(q, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Return the uniformized DTMC ``P = I + Q / Lambda`` and ``Lambda``.

    Parameters
    ----------
    q:
        A valid CTMC generator.
    rate:
        Optional uniformization constant; must satisfy
        ``rate >= max_i |q_ii|``.  When omitted a slightly padded maximum
        exit rate is used (keeping ``P`` aperiodic).
    """
    q = validate_generator(as_csr(q))
    max_exit = float(np.max(-q.diagonal()))
    if rate is None:
        rate = uniformization_rate(q)
    elif rate < max_exit:
        raise CTMCError(
            f"uniformization rate {rate} below max exit rate {max_exit}"
        )
    if rate <= 0:
        raise CTMCError("uniformization rate must be positive")
    n = q.shape[0]
    p = sp.identity(n, format="csr") + q.multiply(1.0 / rate)
    p = p.tocsr()
    # Clip tiny negative round-off on the diagonal.
    p.data[p.data < 0] = np.where(
        p.data[p.data < 0] > -1e-12, 0.0, p.data[p.data < 0]
    )
    return p, rate


def _validate_time_grid(times) -> np.ndarray:
    """Validate a 1-D, non-negative, non-decreasing time grid."""
    grid = np.asarray(list(times), dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise CTMCError("need a non-empty 1-D grid of time points")
    if np.any(grid < 0):
        raise CTMCError("time points must be non-negative")
    if np.any(np.diff(grid) < 0):
        raise CTMCError("time grid must be non-decreasing")
    return grid


# ----------------------------------------------------------------------
# The Jensen walk
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TruncationCertificate:
    """Certified error accounting of one uniformization solve.

    Attributes
    ----------
    segments:
        Number of positive-length grid segments walked.
    terms:
        Total Jensen terms (matrix-vector products) across all segments.
    distribution_bound:
        L1 bound on every returned distribution row: the sum over
        segments of ``2 * truncated_mass`` (left + right truncation plus
        renormalisation; propagation through later segments is
        non-expansive because ``P`` is stochastic and Poisson weights
        are a convex combination).
    accrual_bound:
        Absolute bound on every accumulated-reward value: per segment,
        the closed-form survival-series tail
        ``(max|r| / L) * E[(N - R - 1)^+]`` plus the carried
        distribution error accrued over the segment
        (``carried_bound * max|r| * dt``).  Zero when no rewards were
        integrated.
    workspace_bytes:
        Bytes the solve admitted against the budget (workspaces +
        transposed generator + result rows).
    budget_bytes:
        The budget the solve was admitted under.
    allocation_free:
        True when the zero-allocation matvec kernel served every step.
    """

    segments: int
    terms: int
    distribution_bound: float
    accrual_bound: float
    workspace_bytes: int
    budget_bytes: int
    allocation_free: bool


@dataclass(frozen=True)
class UniformizationResult:
    """Distribution rows (and optional accumulated rewards) + certificate."""

    rows: np.ndarray
    accumulated: np.ndarray | None
    certificate: TruncationCertificate


class UniformizationWorkspace:
    """Preallocated state-vector buffers for the Jensen walk.

    Four ``float64`` vectors of length ``num_states``: the current
    Jensen iterate, the matvec target, the weighted accumulator, and a
    scaling scratch.  A caller that keeps the workspace and passes it
    to every :func:`uniformization_grid` call on one chain touches the
    allocator for these buffers exactly once.
    """

    #: Number of state vectors the workspace holds.
    VECTORS = 4

    def __init__(self, num_states: int):
        if num_states < 1:
            raise CTMCError(
                f"workspace needs >= 1 state, got {num_states}"
            )
        self.num_states = int(num_states)
        self.vec = np.empty(num_states)
        self.nxt = np.empty(num_states)
        self.acc = np.empty(num_states)
        self.scaled = np.empty(num_states)


def required_bytes(
    num_states: int, nnz: int, grid_points: int, with_accumulated: bool = False
) -> int:
    """Bytes a uniformization solve admits against the memory budget.

    Counts the four workspace vectors, the transposed-generator copy
    (data + int32 indices + indptr), the result rows block
    (``grid_points x num_states`` doubles) and, for accumulated solves,
    the rewards vector and totals.  Per-segment Poisson weight arrays
    are O(window length), independent of the state count, and not
    charged.
    """
    vectors = UniformizationWorkspace.VECTORS * 8 * num_states
    generator = nnz * 12 + (num_states + 1) * 8
    rows = grid_points * num_states * 8
    extra = (num_states + grid_points) * 8 if with_accumulated else 0
    return vectors + generator + rows + extra


@dataclass(frozen=True)
class _Segment:
    """Poisson weights for one positive-length grid segment."""

    window: PoissonWindow
    #: Survival weights ``sf(0..R_acc)`` (empty without rewards).
    sf_weights: np.ndarray
    #: Last Jensen term the segment walks to.
    right: int


def _plan(
    q: sp.csr_matrix,
    initial: np.ndarray,
    rewards: np.ndarray | None,
    times,
    tolerance: float,
    budget_bytes: int | None,
) -> tuple[np.ndarray, float, list[_Segment | None], TruncationCertificate]:
    """Validate, admit and plan a solve before any state vector exists.

    Returns ``(grid, rate, segments, certificate)`` where
    ``segments[j]`` holds the Poisson weights of the segment ending at
    ``grid[j]`` (``None`` for a zero-length one).  Budget admission and
    the ``MAX_UNIFORMIZATION_TERMS`` window bound are both checked here,
    for every segment, so a refused solve costs no matvec.
    """
    grid = _validate_time_grid(times)
    n = q.shape[0]
    if initial.shape != (n,):
        raise CTMCError(
            f"initial distribution has shape {initial.shape}, expected ({n},)"
        )
    with_acc = rewards is not None
    budget = (
        int(budget_bytes)
        if budget_bytes is not None
        else config.memory_budget_bytes()
    )
    required = required_bytes(
        n, int(q.nnz), int(grid.size), with_accumulated=with_acc
    )
    if required > budget:
        raise CTMCError(
            f"uniformization needs {required} workspace bytes "
            f"({n} states, {q.nnz} nnz, {grid.size} grid points) "
            f"but the memory budget is {budget}; raise "
            f"REPRO_MEMORY_BUDGET_MB or solve fewer grid points per pass"
        )
    max_terms = config.limits().max_uniformization_terms
    rate = uniformization_rate(q)
    rmax = float(np.max(np.abs(rewards))) if with_acc else 0.0
    segments: list[_Segment | None] = []
    pi_bound = 0.0
    acc_bound = 0.0
    prev = 0.0
    for t in grid:
        dt = float(t) - prev
        prev = float(t)
        if dt <= 0.0:
            segments.append(None)
            continue
        mean = rate * dt
        window = fox_glynn_weights(mean, tolerance=tolerance)
        right = window.right
        sf_weights = np.empty(0)
        if with_acc:
            # The carried distribution error accrues into the integral
            # over this segment before the walk tightens anything, so
            # charge it against the bound first.
            acc_bound += pi_bound * rmax * dt
            sf_right = accrual_right_point(mean, tolerance)
            sf_weights = pdtrc(np.arange(sf_right + 1), mean)
            acc_bound += (rmax / rate) * poisson_excess_mean(
                mean, sf_right + 1
            )
            right = max(right, sf_right)
        if right > max_terms:
            raise CTMCError(
                f"uniformization series needs {right} terms, above the "
                f"MAX_UNIFORMIZATION_TERMS bound of {max_terms}; use the "
                "Krylov ('expm'/'krylov') or dense-expm backend for this "
                "stiffness, or raise REPRO_MAX_UNIFORMIZATION_TERMS"
            )
        pi_bound += 2.0 * window.truncated_mass
        segments.append(_Segment(window, sf_weights, right))
    walked = [s for s in segments if s is not None]
    certificate = TruncationCertificate(
        segments=len(walked),
        terms=sum(s.right for s in walked),
        distribution_bound=pi_bound,
        accrual_bound=acc_bound,
        workspace_bytes=required,
        budget_bytes=budget,
        allocation_free=ALLOCATION_FREE_KERNEL,
    )
    return grid, rate, segments, certificate


def truncation_certificate(
    q,
    initial: np.ndarray,
    times,
    rewards=None,
    tolerance: float = 1e-12,
    budget_bytes: int | None = None,
) -> TruncationCertificate:
    """The certificate :func:`uniformization_grid` would return, unwalked.

    Every field depends on the generator's shape and rate, the grid,
    the rewards' magnitude and the budget — never on the iterates — so
    it is computed from the same plan without a single matvec.  Raises
    exactly when the solve would be refused.
    """
    q = validate_generator(as_csr(q))
    pi0 = np.asarray(initial, dtype=np.float64)
    r = None if rewards is None else np.asarray(rewards, dtype=np.float64)
    return _plan(q, pi0, r, times, tolerance, budget_bytes)[3]


def _matvec(at: sp.csr_matrix, x: np.ndarray, y: np.ndarray) -> None:
    """``y = A^T x`` into the preallocated ``y`` (allocation-free kernel
    when available; the certificate records which path served)."""
    if _CSR_MATVEC is not None:
        y[:] = 0.0
        _CSR_MATVEC(
            at.shape[0], at.shape[1], at.indptr, at.indices, at.data, x, y
        )
    else:  # pragma: no cover - old scipy
        y[:] = at @ x


def _step(
    at: sp.csr_matrix, rate: float, ws: UniformizationWorkspace
) -> None:
    """One Jensen step ``vec <- vec P`` with ``P = I + Q/L``, in place.

    Computed as ``nxt = vec + (Q^T vec) / L`` — ``P`` is never formed —
    then the two buffers swap roles.
    """
    _matvec(at, ws.vec, ws.nxt)
    np.multiply(ws.nxt, 1.0 / rate, out=ws.nxt)
    np.add(ws.nxt, ws.vec, out=ws.nxt)
    ws.vec, ws.nxt = ws.nxt, ws.vec


def uniformization_grid(
    q,
    initial: np.ndarray,
    times,
    rewards=None,
    tolerance: float = 1e-12,
    budget_bytes: int | None = None,
    workspace: UniformizationWorkspace | None = None,
) -> UniformizationResult:
    """Transient distributions (and accumulated rewards) over a time grid.

    Instead of restarting the Jensen series from ``t = 0`` for each grid
    point, the walk is stepped *incrementally*: the distribution at
    ``times[j]`` seeds the Fox–Glynn walk for the segment
    ``times[j+1] - times[j]``.  Total cost is one pass of length
    ``Lambda * times[-1]`` rather than ``sum_j Lambda * times[j]``.  A
    scalar solve is the one-point grid ``[t]``.

    With ``rewards``, one k-walk per segment serves both series: pmf
    weights rebuild the distribution at the segment end, and Poisson
    survival weights integrate the reward across it (the
    integrated-uniformization identity
    ``E[Y(t)] = (1/Lambda) sum_k sf(k; Lambda t) pi(0) P^k r``), so
    ``accumulated[j] = int_0^{times[j]} pi(u) r du``.  The survival
    series is truncated by :func:`accrual_right_point`.

    The grid must be non-decreasing; duplicate entries are served for
    free.  Works on the sparse generator directly, so it has no dense
    state-count limit.  ``rows`` has shape ``(len(times), num_states)``;
    ``accumulated`` is ``None`` without rewards.
    """
    q = validate_generator(as_csr(q))
    n = q.shape[0]
    pi0 = np.asarray(initial, dtype=np.float64)
    r = None if rewards is None else np.ascontiguousarray(rewards, np.float64)
    grid, rate, segments, certificate = _plan(
        q, pi0, r, times, tolerance, budget_bytes
    )
    if workspace is None:
        workspace = UniformizationWorkspace(n)
    elif workspace.num_states != n:
        raise CTMCError(
            f"workspace sized for {workspace.num_states} states, chain "
            f"has {n}"
        )
    ws = workspace
    at = q.T.tocsr()

    rows = np.empty((grid.size, n))
    totals = None if r is None else np.empty(grid.size)
    ws.vec[:] = pi0
    total = 0.0
    for j, seg in enumerate(segments):
        if seg is not None:
            window = seg.window
            ws.acc[:] = 0.0
            segment = 0.0
            for k in range(seg.right + 1):
                if window.left <= k <= window.right:
                    np.multiply(
                        window.weights[k - window.left],
                        ws.vec,
                        out=ws.scaled,
                    )
                    np.add(ws.acc, ws.scaled, out=ws.acc)
                if k < seg.sf_weights.size:
                    segment += float(seg.sf_weights[k]) * float(ws.vec @ r)
                if k < seg.right:
                    _step(at, rate, ws)
            mass = window.total_mass
            if mass > 0:
                np.multiply(ws.acc, 1.0 / mass, out=ws.acc)
            ws.vec[:] = ws.acc
            total += segment / rate
        rows[j] = ws.vec
        if totals is not None:
            totals[j] = total
    return UniformizationResult(
        rows=rows, accumulated=totals, certificate=certificate
    )
