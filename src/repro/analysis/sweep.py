"""Parameter sweeps over the performability index.

A sweep evaluates ``Y(phi)`` over a ``phi`` grid for one parameter set
(one *curve* of a paper figure).  Multi-curve figures are lists of
sweeps; see :mod:`repro.analysis.experiments`.

Sweeps route through the campaign runtime
(:mod:`repro.runtime.campaign`), so a single curve transparently gains
parallel backends, result caching, and run artifacts when the installed
:class:`~repro.runtime.campaign.RuntimeConfig` (or explicit arguments)
asks for them.  The default remains serial and uncached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import PerformabilityEvaluation, sweep_phi
from repro.runtime.spec import default_grid as _default_grid

#: Relative tolerance for matching a ``phi`` against grid points in
#: :meth:`SweepResult.value_at`.  Generous enough to absorb float noise
#: from grid construction or round-tripped specs, far tighter than any
#: realistic grid spacing.
VALUE_AT_REL_TOL = 1e-9

#: Absolute tolerance companion (handles ``phi == 0.0`` exactly).
VALUE_AT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class SweepPoint:
    """One ``(phi, Y)`` point with its full evaluation attached."""

    phi: float
    y: float
    evaluation: PerformabilityEvaluation


@dataclass(frozen=True)
class SweepResult:
    """One full ``Y(phi)`` curve.

    Attributes
    ----------
    label:
        Curve label (e.g. ``"mu_new = 0.0001"``).
    params:
        The parameter set swept.
    points:
        The evaluated grid, in ``phi`` order.
    """

    label: str
    params: GSUParameters
    points: tuple[SweepPoint, ...]

    @property
    def phis(self) -> list[float]:
        """The ``phi`` grid."""
        return [p.phi for p in self.points]

    @property
    def values(self) -> list[float]:
        """The ``Y`` values."""
        return [p.y for p in self.points]

    def optimum(self) -> SweepPoint:
        """The grid point with maximal ``Y``."""
        return max(self.points, key=lambda p: p.y)

    def value_at(self, phi: float) -> float:
        """``Y`` at the grid point matching ``phi``.

        Matching uses :func:`math.isclose` with
        :data:`VALUE_AT_REL_TOL` / :data:`VALUE_AT_ABS_TOL` rather than
        exact float equality, so a ``phi`` reconstructed by arithmetic
        (``0.7 * theta``) or JSON round-trip still finds its point.  A
        ``phi`` genuinely off the grid raises ``KeyError``.
        """
        for point in self.points:
            if math.isclose(
                point.phi,
                phi,
                rel_tol=VALUE_AT_REL_TOL,
                abs_tol=VALUE_AT_ABS_TOL,
            ):
                return point.y
        raise KeyError(f"phi={phi} is not on the sweep grid")


def default_grid(theta: float, step: float = 1000.0) -> list[float]:
    """The paper's evaluation grid: ``0, step, 2*step, ..., theta``.

    Delegates to :func:`repro.runtime.spec.default_grid` — the runtime's
    planner and the analysis layer share one grid so cache keys line up.
    """
    return _default_grid(theta, step=step)


def run_sweep(
    params: GSUParameters,
    label: str = "",
    phis: list[float] | None = None,
    step: float = 1000.0,
    solver: ConstituentSolver | None = None,
    jobs: int | None = None,
    backend: str | None = None,
    cache=None,
) -> SweepResult:
    """Evaluate one ``Y(phi)`` curve.

    Parameters
    ----------
    params:
        Parameter set for the curve.
    label:
        Display label; defaults to a compact parameter summary.
    phis:
        Explicit grid; default is the paper's 1000-hour grid over
        ``[0, theta]`` (``step`` configurable).
    solver:
        Optional pre-built solver.  When given, the sweep runs directly
        in-process against it (model reuse with externally compiled
        models cannot cross worker boundaries); otherwise the sweep
        routes through the campaign runtime and honours the installed
        :class:`~repro.runtime.campaign.RuntimeConfig`.
    jobs / backend / cache:
        Runtime overrides, forwarded to
        :func:`~repro.runtime.campaign.run_campaign`.
    """
    if not label:
        label = (
            f"theta={params.theta:g}, mu_new={params.mu_new:g}, "
            f"c={params.coverage:g}, alpha={params.alpha:g}"
        )
    if solver is not None:
        if phis is None:
            phis = default_grid(params.theta, step=step)
        evaluations = sweep_phi(params, phis, solver=solver)
        points = tuple(
            SweepPoint(phi=e.phi, y=e.value, evaluation=e) for e in evaluations
        )
        return SweepResult(label=label, params=params, points=points)

    # Route through the campaign runtime (lazy import: the runtime
    # imports this module to assemble SweepResults).
    from repro.runtime.campaign import run_campaign
    from repro.runtime.spec import CampaignSpec, CurveSpec

    spec = CampaignSpec(
        name="sweep",
        curves=(
            CurveSpec(
                label=label,
                params=params,
                phis=tuple(phis) if phis is not None else None,
                step=step,
            ),
        ),
    )
    return run_campaign(spec, backend=backend, jobs=jobs, cache=cache).sweeps[0]
