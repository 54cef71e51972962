"""Campaign specifications: parameter sets × ``phi`` grids.

A :class:`CampaignSpec` is the declarative form of a batch of ``Y(phi)``
evaluations — exactly the structure the paper's figures have (each figure
is a few curves; each curve is one parameter set over one grid).  Specs
are pure data: they can be hashed, serialized to JSON, diffed between
runs, and expanded into tasks by :mod:`repro.runtime.tasks`.

The canned per-figure campaigns (``FIG9`` .. ``FIG12``) live here as the
single source of truth for the paper's parameter studies;
:mod:`repro.analysis.experiments` evaluates them through the runtime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from repro.gsu.parameters import PAPER_TABLE3, GSUParameters

#: Grid tolerance for deduplicating the endpoint (see :func:`default_grid`).
GRID_REL_TOL = 1e-9


def default_grid(theta: float, step: float = 1000.0) -> list[float]:
    """The paper's evaluation grid: ``0, step, 2*step, ..., theta``.

    Interior points are built from *integer multiples* of ``step``
    (``i * step``) rather than repeated accumulation, so no float drift
    can pile up across a long grid.  If the last interior multiple lands
    within relative tolerance :data:`GRID_REL_TOL` of ``theta`` it is
    dropped in favour of the exact endpoint, so the grid never ends in a
    near-duplicate pair like ``(9999.999999999998, 10000.0)``.

    ``step`` and ``theta`` must be positive and finite; a NaN or
    infinite value would never reach the endpoint and loop forever.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    grid: list[float] = []
    i = 0
    while True:
        value = round(i * step, 9)
        if value >= theta or math.isclose(
            value, theta, rel_tol=GRID_REL_TOL, abs_tol=0.0
        ):
            break
        grid.append(value)
        i += 1
    grid.append(float(theta))
    return grid


@dataclass(frozen=True)
class CurveSpec:
    """One curve: a parameter set evaluated over a ``phi`` grid.

    Attributes
    ----------
    label:
        Display label of the curve (becomes the ``SweepResult`` label).
    params:
        The parameter set to sweep.
    phis:
        Explicit grid; when ``None`` the paper's default grid over
        ``[0, theta]`` with ``step`` spacing is used.
    step:
        Grid spacing used when ``phis`` is ``None``.
    """

    label: str
    params: GSUParameters
    phis: tuple[float, ...] | None = None
    step: float = 1000.0

    def grid(self) -> tuple[float, ...]:
        """The concrete evaluation grid for this curve."""
        if self.phis is not None:
            return tuple(float(p) for p in self.phis)
        return tuple(default_grid(self.params.theta, step=self.step))

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready)."""
        return {
            "label": self.label,
            "params": params_to_dict(self.params),
            "phis": list(self.phis) if self.phis is not None else None,
            "step": self.step,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CurveSpec":
        """Inverse of :meth:`to_dict`."""
        phis = data.get("phis")
        return cls(
            label=str(data["label"]),
            params=params_from_dict(data["params"]),
            phis=tuple(float(p) for p in phis) if phis is not None else None,
            step=float(data.get("step", 1000.0)),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A named batch of curves plus shared solver options.

    ``solver_options`` is a canonicalized key/value mapping folded into
    every task's cache key — any future solver knob (method selection,
    tolerances) must be registered here so cached results can never be
    confused across solver configurations.
    """

    name: str
    curves: tuple[CurveSpec, ...]
    solver_options: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.curves:
            raise ValueError("campaign must contain at least one curve")
        canonical = tuple(
            sorted((str(k), str(v)) for k, v in self.solver_options)
        )
        object.__setattr__(self, "solver_options", canonical)

    @property
    def num_points(self) -> int:
        """Total number of evaluation points across all curves."""
        return sum(len(curve.grid()) for curve in self.curves)

    def with_step(self, step: float) -> "CampaignSpec":
        """A copy with every implicit grid re-spaced at ``step``.

        Curves with explicit ``phis`` are left untouched.
        """
        return replace(
            self,
            curves=tuple(
                curve if curve.phis is not None else replace(curve, step=step)
                for curve in self.curves
            ),
        )

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready), canonical across runs."""
        return {
            "name": self.name,
            "curves": [curve.to_dict() for curve in self.curves],
            "solver_options": {k: v for k, v in self.solver_options},
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical JSON rendering of the spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            curves=tuple(
                CurveSpec.from_dict(c) for c in data["curves"]
            ),
            solver_options=tuple(
                dict(data.get("solver_options", {})).items()
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a spec from its JSON rendering."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Parameter (de)serialization
# ----------------------------------------------------------------------
_PARAM_FIELDS = tuple(f.name for f in fields(GSUParameters))


def params_to_dict(params: GSUParameters) -> dict[str, float]:
    """All ``GSUParameters`` fields as a plain mapping (JSON-ready)."""
    return {name: getattr(params, name) for name in _PARAM_FIELDS}


def params_from_dict(data: dict) -> GSUParameters:
    """Rebuild ``GSUParameters`` from :func:`params_to_dict` output."""
    unknown = set(data) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
    return GSUParameters(**{name: float(value) for name, value in data.items()})


# ----------------------------------------------------------------------
# Canned per-figure campaigns (the paper's parameter studies)
# ----------------------------------------------------------------------
def _fig9_campaign() -> CampaignSpec:
    base = PAPER_TABLE3
    return CampaignSpec(
        name="FIG9",
        curves=(
            CurveSpec(label="mu_new = 0.0001", params=base),
            CurveSpec(
                label="mu_new = 0.00005",
                params=base.with_overrides(mu_new=0.5e-4),
            ),
        ),
    )


def _fig10_campaign() -> CampaignSpec:
    # Labels here are the *static* study names; the FIG10 experiment
    # relabels the resulting sweeps with the derived rho values.
    fast = PAPER_TABLE3
    slow = fast.with_overrides(alpha=2500.0, beta=2500.0)
    return CampaignSpec(
        name="FIG10",
        curves=(
            CurveSpec(label="alpha = beta = 6000", params=fast),
            CurveSpec(label="alpha = beta = 2500", params=slow),
        ),
    )


def _fig11_campaign() -> CampaignSpec:
    base = PAPER_TABLE3.with_overrides(alpha=2500.0, beta=2500.0)
    coverages = (0.95, 0.75, 0.50, 0.20, 0.10)
    return CampaignSpec(
        name="FIG11",
        curves=tuple(
            CurveSpec(
                label=f"c = {c:.2f}",
                params=base.with_overrides(coverage=c),
            )
            for c in coverages
        ),
    )


def _fig12_campaign() -> CampaignSpec:
    base = PAPER_TABLE3.with_overrides(theta=5000.0)
    return CampaignSpec(
        name="FIG12",
        curves=(
            CurveSpec(label="mu_new = 0.0001", params=base, step=500.0),
            CurveSpec(
                label="mu_new = 0.00005",
                params=base.with_overrides(mu_new=0.5e-4),
                step=500.0,
            ),
        ),
    )


#: Builders for the paper's figure campaigns, keyed by experiment id.
FIGURE_CAMPAIGNS = {
    "FIG9": _fig9_campaign,
    "FIG10": _fig10_campaign,
    "FIG11": _fig11_campaign,
    "FIG12": _fig12_campaign,
}


def figure_campaign(experiment_id: str, step: float | None = None) -> CampaignSpec:
    """The campaign spec of one paper figure (``FIG9`` .. ``FIG12``).

    ``step`` optionally re-spaces every implicit grid (e.g. for smoke
    runs or denser studies); each figure's paper grid is the default.
    """
    try:
        builder = FIGURE_CAMPAIGNS[experiment_id]
    except KeyError:
        raise KeyError(
            f"no campaign for {experiment_id!r}; have {sorted(FIGURE_CAMPAIGNS)}"
        ) from None
    spec = builder()
    if step is not None:
        spec = spec.with_step(step)
    return spec
