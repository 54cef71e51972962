"""The synthesis objective: ``Y`` over the lever box, with an overhead
budget.

The objective surface is the performability index ``Y(params(x), phi(x))``
evaluated through the parametric template cache (a lever move re-stamps
rates onto a compiled state space instead of re-exploring it), and the
*overhead* of a design point is the phi-independent steady-state
fraction of lost work ``(1 - rho1) + (1 - rho2)`` from the RMGp model —
the quantity a "max Y subject to overhead <= b" constraint budgets.

Gradients are finite-difference elasticities through
:func:`repro.ctmc.sensitivity.finite_difference_sensitivity`, taken in
normalized lever coordinates with the unit box declared as bounds so
probes at a box face fall back to one-sided differences instead of
stepping outside the design domain.

With a certified surrogate attached (``surrogate=`` on the evaluator),
in-box points are answered from the closed-form Chebyshev approximants
and gradients come analytically from the chained aggregation partials —
no solver probes at all.  The exact solver remains in the loop as the
line-search *validator*: whenever a surrogate-claimed improvement is
smaller than the certified error bounds could explain, the optimizer
resolves the comparison with exact solves, and the reported optimum is
always re-evaluated exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.ctmc.sensitivity import finite_difference_sensitivity
from repro.gsu.parameters import GSUParameters
from repro.synth.levers import LeverSpec, apply_point

#: Evaluates ``[(Y, overhead), ...]`` for many durations of one
#: parameter set.  The pluggable core of the synthesis loop: the local
#: implementation batches through shared solvers, the serving layer
#: substitutes its coalescing-batcher path.
EvaluateFn = Callable[
    [GSUParameters, Sequence[float]], list[tuple[float, float]]
]


@dataclass(frozen=True)
class SynthesisProblem:
    """A joint design search: levers, their box, and an overhead budget.

    Attributes
    ----------
    params:
        The base parameter set; lever values override its fields.
    levers:
        The search dimensions (``phi`` always among them).
    budget:
        Optional overhead budget ``b``: the constrained mode maximises
        ``Y`` subject to ``(1 - rho1) + (1 - rho2) <= b``.  ``None``
        runs unconstrained.
    """

    params: GSUParameters
    levers: tuple[LeverSpec, ...]
    budget: float | None = None

    def __post_init__(self):
        if self.budget is not None and self.budget <= 0.0:
            raise ValueError(
                f"overhead budget must be positive, got {self.budget}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(lever.name for lever in self.levers)

    def describe_point(self, point: Sequence[float]) -> dict[str, float]:
        """A point as a ``{lever: value}`` mapping for reports."""
        return {
            lever.name: float(value)
            for lever, value in zip(self.levers, point)
        }


def overhead_from_constituents(constituents) -> float:
    """``(1 - rho1) + (1 - rho2)`` from a record's constituent block."""
    return (2.0 - float(constituents["rho1"])) - float(constituents["rho2"])


#: Parameter sets whose compiled solvers :func:`local_evaluate_fn` keeps.
MAX_SOLVERS = 8


def local_evaluate_fn() -> EvaluateFn:
    """The in-process evaluator: batched solves over shared solvers.

    Keeps a small LRU of :class:`ConstituentSolver` instances keyed by
    parameter set, so the phi coordinate of a gradient step (three
    durations, one parameter set) costs one batched pass and revisited
    parameter sets reuse their compiled models.
    """
    from repro.gsu.measures import ConstituentSolver
    from repro.gsu.performability import evaluate_batch

    solvers: OrderedDict[GSUParameters, object] = OrderedDict()

    def evaluate(params, phis):
        solver = solvers.get(params)
        if solver is None:
            solver = ConstituentSolver(params)
            solvers[params] = solver
            if len(solvers) > MAX_SOLVERS:
                solvers.popitem(last=False)
        else:
            solvers.move_to_end(params)
        evaluations = evaluate_batch(params, list(phis), solver=solver)
        return [
            (e.value, overhead_from_constituents(e.constituents))
            for e in evaluations
        ]

    return evaluate


class ObjectiveEvaluator:
    """Memoised objective/constraint/gradient evaluations over the box.

    Every distinct point is evaluated once per process; gradient centres,
    line-search revisits, and multi-start collisions are served from the
    memo.  ``points_evaluated`` counts actual solver evaluations — the
    cost metric the synthesis benchmark reports.

    ``surrogate`` (a certified
    :class:`~repro.surrogate.model.SurrogateModel`) reroutes in-box
    point evaluations through the closed-form approximants;
    ``surrogate_points`` counts those.  Exact answers, once computed,
    always win over surrogate answers for the same point.
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        evaluate_fn: EvaluateFn | None = None,
        penalty_weight: float = 1e4,
        surrogate=None,
    ):
        self.problem = problem
        self.evaluate_fn = (
            evaluate_fn if evaluate_fn is not None else local_evaluate_fn()
        )
        self.penalty_weight = float(penalty_weight)
        self.surrogate = surrogate
        self._memo: dict[tuple[float, ...], tuple[float, float]] = {}
        self._surrogate_memo: dict[tuple[float, ...], tuple[float, float]] = {}
        self.points_evaluated = 0
        self.surrogate_points = 0
        if surrogate is not None:
            self._overhead_bound = surrogate.abs_bound(
                "rho1"
            ) + surrogate.abs_bound("rho2")

    # ------------------------------------------------------------------
    # Point evaluation
    # ------------------------------------------------------------------
    def _instantiate(
        self, key: tuple[float, ...]
    ) -> tuple[GSUParameters, float]:
        return apply_point(self.problem.params, self.problem.levers, key)

    def measures(
        self, point: Sequence[float], exact: bool = False
    ) -> tuple[float, float]:
        """``(Y, overhead)`` at a raw-coordinate point (memoised).

        ``exact=True`` forces a solver evaluation even when a surrogate
        is attached — the resolution step of an ambiguous line-search
        comparison, and the final optimum's re-evaluation.
        """
        key = tuple(float(v) for v in point)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        params, phi = self._instantiate(key)
        if (
            not exact
            and self.surrogate is not None
            and self.surrogate.contains(params, phi)
        ):
            hit = self._surrogate_memo.get(key)
            if hit is None:
                evaluation = self.surrogate.evaluate(params, phi)
                hit = (
                    evaluation.value,
                    overhead_from_constituents(evaluation.constituents),
                )
                self.surrogate_points += 1
                self._surrogate_memo[key] = hit
            return hit
        (result,) = self.evaluate_fn(params, [phi])
        self.points_evaluated += 1
        self._memo[key] = result
        return result

    def _penalized(self, y: float, overhead: float) -> float:
        value = y
        if self.problem.budget is not None:
            violation = max(0.0, overhead - self.problem.budget)
            value = y - self.penalty_weight * violation * violation
        return value

    def objective(
        self, point: Sequence[float], exact: bool = False
    ) -> tuple[float, float, float]:
        """``(Y, overhead, penalized objective)`` at a point.

        Unconstrained problems maximise ``Y`` directly; with a budget the
        objective is ``Y`` minus a quadratic exterior penalty on the
        violation, which pushes the ascent back toward the feasible set
        while leaving the feasible interior untouched.
        """
        y, overhead = self.measures(point, exact=exact)
        return y, overhead, self._penalized(y, overhead)

    def objective_bound(self, point: Sequence[float]) -> float:
        """Certified uncertainty of the penalized objective at a point.

        Zero for exactly evaluated points (or without a surrogate);
        otherwise the first-order ``Y`` bound plus, in constrained mode,
        the penalty term's amplification of the overhead bound.
        """
        key = tuple(float(v) for v in point)
        if self.surrogate is None or key in self._memo:
            return 0.0
        params, phi = self._instantiate(key)
        if not self.surrogate.contains(params, phi):
            return 0.0
        bound = self.surrogate.y_error_bound(params, phi)
        if self.problem.budget is not None:
            _, overhead = self.measures(key)
            violation = max(0.0, overhead - self.problem.budget)
            bound += (
                2.0
                * self.penalty_weight
                * (violation + self._overhead_bound)
                * self._overhead_bound
            )
        return bound

    def is_feasible(self, overhead: float) -> bool:
        budget = self.problem.budget
        return budget is None or overhead <= budget * (1.0 + 1e-9)

    # ------------------------------------------------------------------
    # Gradient (normalized coordinates)
    # ------------------------------------------------------------------
    def _analytic_gradient(
        self, point: Sequence[float]
    ) -> tuple[float, ...] | None:
        """Surrogate gradient of the penalized objective, or ``None``.

        Available when every lever is a surrogate axis and the point is
        in-box: ``dY/dx`` chains the aggregation partials through the
        Chebyshev derivative tensors, and in constrained mode the
        penalty term adds ``-2 w max(0, violation) d overhead/dx`` with
        ``d overhead/dx = -(d rho1/dx + d rho2/dx)``.  Components are
        returned in unit-box coordinates (times the lever span).
        """
        if self.surrogate is None:
            return None
        axis_names = set(self.surrogate.spec.axis_names)
        if any(lever.name not in axis_names for lever in self.problem.levers):
            return None
        key = tuple(float(v) for v in point)
        params, phi = self._instantiate(key)
        if not self.surrogate.contains(params, phi):
            return None
        y, y_grad = self.surrogate.y_and_gradient(params, phi)
        penalty_scale = 0.0
        overhead_grad: dict[str, float] = {}
        if self.problem.budget is not None:
            values, by_axis = self.surrogate.partials(params, phi)
            overhead = overhead_from_constituents(values)
            violation = max(0.0, overhead - self.problem.budget)
            penalty_scale = 2.0 * self.penalty_weight * violation
            overhead_grad = {
                name: -(partials["rho1"] + partials["rho2"])
                for name, partials in by_axis.items()
            }
        components = []
        for lever in self.problem.levers:
            df = y_grad[lever.name]
            if penalty_scale:
                df -= penalty_scale * overhead_grad[lever.name]
            components.append(df * lever.span)
        return tuple(components)

    def gradient(
        self, point: Sequence[float], fd_step: float = 1e-3
    ) -> tuple[float, ...]:
        """``dF/du`` of the penalized objective in unit-box coordinates.

        With an applicable surrogate this is the analytic chained
        gradient (zero solver cost); otherwise each component is a
        bounded finite difference on the unit interval: interior
        coordinates use central differences, points on a box face fall
        back to the one-sided estimate — the probes never leave the
        design domain.
        """
        analytic = self._analytic_gradient(point)
        if analytic is not None:
            return analytic
        levers = self.problem.levers
        raw = [float(v) for v in point]
        components = []
        for i, lever in enumerate(levers):
            u0 = lever.normalize(raw[i])

            def measure(
                u: float, i: int = i, lever: LeverSpec = lever, u0: float = u0
            ):
                trial = list(raw)
                # The centre probe reuses the exact raw coordinate so it
                # hits the memo instead of re-solving a point that may
                # differ by one normalization round trip's ulp.
                trial[i] = raw[i] if u == u0 else lever.denormalize(u)
                return self.objective(trial)[2]

            result = finite_difference_sensitivity(
                measure,
                at=u0,
                relative_step=fd_step,
                bounds=(0.0, 1.0),
            )
            components.append(result.derivative)
        return tuple(components)
