"""The performability index ``Y(phi)`` via successive model translation.

This module assembles the paper's full evaluation chain (Figure 3):

1. The design-oriented definition of ``Y`` (Equation 1) over the mission
   worths ``W_I``, ``W_0``, ``W_phi`` (Equations 2-4).
2. High-level elaboration by total expectation (Equations 5-9).
3. Sample-path decomposition at the cutoff ``phi`` (Equations 10-14).
4. Analytic manipulation of ``Y_S2`` — expansion, neglect of the
   second-order double-integral term, coordinate translation of the
   integration area (Equations 15-21).
5. Mapping of the surviving constituent measures onto reward structures
   in ``RMGd``, ``RMGp`` and ``RMNd`` (Tables 1-2, Section 5.2.3).

The discount factor for an unsuccessful-but-safe upgrade follows the
evaluation section: ``gamma = 1 - tau_bar / theta`` where ``tau_bar`` is
the mean-time-to-error-detection measure ``int_0^phi tau h(tau) dtau``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.constituent import (
    ConstituentMeasure,
    EvaluationContext,
    SolutionType,
)
from repro.core.index import PerformabilityIndex, WorthModel
from repro.core.translation import TranslationPipeline, TranslationStage
from repro.gsu.measures import (
    RS_A1_GOP,
    RS_INT_H,
    RS_INT_HF,
    RS_INT_TAU_H,
    RS_ND_ALIVE,
    RS_OVERHEAD_1,
    RS_OVERHEAD_2,
    ConstituentSolver,
)
from repro.gsu.parameters import GSUParameters


@dataclass(frozen=True)
class PerformabilityEvaluation:
    """The full outcome of evaluating ``Y`` at one ``phi``.

    Attributes
    ----------
    phi:
        The guarded-operation duration evaluated.
    index:
        The performability index object (``.value`` is ``Y``).
    worth:
        The worth triple ``(E[W_I], E[W_0], E[W_phi])``.
    y_s1 / y_s2:
        The two summands of ``E[W_phi]`` (Equation 6).
    gamma:
        The unsuccessful-upgrade discount factor used.
    constituents:
        All nine solved constituent measures by name.
    """

    phi: float
    index: PerformabilityIndex
    worth: WorthModel
    y_s1: float
    y_s2: float
    gamma: float
    constituents: dict[str, float]

    @property
    def value(self) -> float:
        """The performability index ``Y``."""
        return self.index.value


# ----------------------------------------------------------------------
# Translation pipeline construction
# ----------------------------------------------------------------------
_STAGES = (
    TranslationStage(
        name="worth_definition",
        description=(
            "Define mission worth W_I, W_0, W_phi over the sample-path "
            "classes S1 (upgrade succeeds), S2 (error detected, safe "
            "downgrade) and failure paths."
        ),
        inputs=("Y",),
        outputs=("E_WI", "E_W0", "E_Wphi"),
        equation="Eqs. (1)-(4)",
    ),
    TranslationStage(
        name="total_expectation",
        description=(
            "Elaborate E[W_phi] by total expectation into the S1 term "
            "(steady-state overhead fractions times survival "
            "probabilities) and the S2 term (double integral over the "
            "detection density h and post-recovery failure density f)."
        ),
        inputs=("E_Wphi",),
        outputs=("Y_S1", "Y_S2"),
        equation="Eqs. (5)-(9)",
    ),
    TranslationStage(
        name="steady_state_overhead",
        description=(
            "Treat the forward-progress fractions as steady-state "
            "instant-of-time measures (message events are orders of "
            "magnitude more frequent than fault events)."
        ),
        inputs=("Y_S1", "Y_S2"),
        outputs=("rho1", "rho2"),
        equation="Eq. (8)",
    ),
    TranslationStage(
        name="sample_path_decomposition",
        description=(
            "Break X into X' (over [0, phi]) and X'' (over [phi, theta], "
            "shifted to [0, theta - phi]); S1 factorises into the product "
            "of no-error probabilities of the two processes."
        ),
        inputs=("E_W0", "Y_S1"),
        outputs=("p_nd_theta", "p_gd_phi_a1", "p_nd_theta_minus_phi"),
        equation="Eqs. (10)-(14)",
    ),
    TranslationStage(
        name="detection_measures",
        description=(
            "Leave h unelaborated; its integrals become reward variables "
            "on X' — the detection probability as an instant-of-time "
            "reward, the mean detection time as an accumulated reward "
            "with rates +1 on A2' and -1 on A4'."
        ),
        inputs=("Y_S2",),
        outputs=("int_h", "int_tau_h"),
        equation="Eqs. (15)-(18)",
    ),
    TranslationStage(
        name="coordinate_translation",
        description=(
            "Neglect the second-order term of Eq. (19), then convert the "
            "coordinates of the remaining double integral so no "
            "constituent crosses the phi boundary: a detected-then-failed "
            "instant measure on X' plus the product of the detection "
            "probability and the post-recovery failure probability on X''."
        ),
        inputs=("Y_S2",),
        outputs=("int_hf", "int_f"),
        equation="Eqs. (19)-(21)",
    ),
)


def _build_measures() -> tuple[ConstituentMeasure, ...]:
    """The nine constituent measures referencing the base models."""
    return (
        ConstituentMeasure(
            name="p_nd_theta",
            description="P(X''_theta in A1'') — unprotected upgraded system survives theta",
            model_key="RMNd_new",
            structure=RS_ND_ALIVE,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["theta"],
        ),
        ConstituentMeasure(
            name="p_gd_phi_a1",
            description="P(X'_phi in A1') — no error through the G-OP interval",
            model_key="RMGd",
            structure=RS_A1_GOP,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["phi"],
        ),
        ConstituentMeasure(
            name="p_nd_theta_minus_phi",
            description="P(X''_(theta-phi) in A1'') — upgraded system survives theta - phi",
            model_key="RMNd_new",
            structure=RS_ND_ALIVE,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["theta"] - p["phi"],
        ),
        ConstituentMeasure(
            name="rho1",
            description="steady-state forward-progress fraction of P1new",
            model_key="RMGp",
            structure=RS_OVERHEAD_1,
            solution=SolutionType.STEADY_STATE,
            transform=lambda overhead: 1.0 - overhead,
        ),
        ConstituentMeasure(
            name="rho2",
            description="steady-state forward-progress fraction of P2",
            model_key="RMGp",
            structure=RS_OVERHEAD_2,
            solution=SolutionType.STEADY_STATE,
            transform=lambda overhead: 1.0 - overhead,
        ),
        ConstituentMeasure(
            name="int_h",
            description="int_0^phi h(tau) dtau — error detected (and recovered system alive) by phi",
            model_key="RMGd",
            structure=RS_INT_H,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["phi"],
        ),
        ConstituentMeasure(
            name="int_tau_h",
            description="int_0^phi tau h(tau) dtau — mean time to error detection",
            model_key="RMGd",
            structure=RS_INT_TAU_H,
            solution=SolutionType.INTERVAL_OF_TIME,
            time=lambda p: p["phi"],
        ),
        ConstituentMeasure(
            name="int_hf",
            description="int_0^phi int_tau^phi h f — detected during G-OP, failed again by phi",
            model_key="RMGd",
            structure=RS_INT_HF,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["phi"],
        ),
        ConstituentMeasure(
            name="int_f",
            description="int_phi^theta f(x) dx — recovered system fails before the next upgrade",
            model_key="RMNd_old",
            structure=RS_ND_ALIVE,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["theta"] - p["phi"],
            transform=lambda survival: 1.0 - survival,
        ),
    )


def _aggregate(values: Mapping[str, float], params: Mapping[str, float]) -> float:
    """Reassemble ``Y`` from the constituent measures (Eqs. 1, 5, 8, 15-21)."""
    breakdown = aggregate_breakdown(values, params)
    return breakdown["Y"]


def aggregate_breakdown(
    values: Mapping[str, float], params: Mapping[str, float]
) -> dict[str, float]:
    """Full aggregation with all intermediate quantities exposed."""
    theta = params["theta"]
    phi = params["phi"]
    e_wi = 2.0 * theta
    e_w0 = 2.0 * theta * values["p_nd_theta"]
    if phi == 0.0:
        # S2 degenerates; S1 reduces to the boundary case (Eq. 5).
        e_wphi = e_w0
        y_s1, y_s2, gamma = e_w0, 0.0, 1.0
    else:
        rho_sum = values["rho1"] + values["rho2"]
        p_s1 = values["p_gd_phi_a1"] * values["p_nd_theta_minus_phi"]
        y_s1 = (rho_sum * phi + 2.0 * (theta - phi)) * p_s1
        gamma = 1.0 - values["int_tau_h"] / theta
        minuend = 2.0 * theta * values["int_h"] - (2.0 - rho_sum) * values["int_tau_h"]
        subtrahend = 2.0 * theta * (
            values["int_hf"] + values["int_h"] * values["int_f"]
        )
        y_s2 = gamma * (minuend - subtrahend)
        e_wphi = y_s1 + y_s2
    denominator = e_wi - e_wphi
    y = float("inf") if denominator <= 0 else (e_wi - e_w0) / denominator
    return {
        "Y": y,
        "E_WI": e_wi,
        "E_W0": e_w0,
        "E_Wphi": e_wphi,
        "Y_S1": y_s1,
        "Y_S2": y_s2,
        "gamma": gamma,
    }


def aggregate_partials(
    values: Mapping[str, float], params: Mapping[str, float]
) -> tuple[float, dict[str, float], float]:
    """``Y`` plus its exact partial derivatives through the aggregation.

    Returns ``(y, dY_dm, dY_dphi_explicit)`` where ``dY_dm[name]`` is
    ``dY/d(measure)`` holding the other measures and ``phi`` fixed, and
    ``dY_dphi_explicit`` is the *explicit* ``phi`` dependence of the
    aggregation formula (the ``rho_sum * phi + 2 (theta - phi)`` weight
    in ``Y_S1``) — the total derivative along a sweep adds the chain
    terms ``sum_i dY/dm_i * dm_i/dphi``, which the surrogate supplies
    analytically from its Chebyshev derivative tensors.

    The closed form differentiates Eq. (1) with ``E[W_I] = 2 theta``
    constant: ``dY/dX = [-dE[W_0]/dX * D + N * dE[W_phi]/dX] / D**2``
    with ``N = E[W_I] - E[W_0]``, ``D = E[W_I] - E[W_phi]``.  Unlike
    :func:`aggregate_breakdown` the ``phi == 0`` branch uses the
    continuous ``phi -> 0+`` limit of the general formula (the two
    agree in value; the limit also defines the one-sided derivative
    the optimizer needs at the box edge).

    When the denominator is non-positive (``Y = inf``) every partial is
    returned as ``0.0`` — there is no useful gradient through a pole.
    """
    theta = params["theta"]
    phi = params["phi"]
    e_wi = 2.0 * theta
    e_w0 = 2.0 * theta * values["p_nd_theta"]

    rho_sum = values["rho1"] + values["rho2"]
    p_gd = values["p_gd_phi_a1"]
    p_nd_rem = values["p_nd_theta_minus_phi"]
    int_h = values["int_h"]
    int_tau_h = values["int_tau_h"]
    int_hf = values["int_hf"]
    int_f = values["int_f"]

    s1_weight = rho_sum * phi + 2.0 * (theta - phi)
    p_s1 = p_gd * p_nd_rem
    y_s1 = s1_weight * p_s1
    gamma = 1.0 - int_tau_h / theta
    minuend = 2.0 * theta * int_h - (2.0 - rho_sum) * int_tau_h
    subtrahend = 2.0 * theta * (int_hf + int_h * int_f)
    y_s2 = gamma * (minuend - subtrahend)
    e_wphi = y_s1 + y_s2

    numerator = e_wi - e_w0
    denominator = e_wi - e_wphi
    if denominator <= 0.0:
        zero = {name: 0.0 for name in values}
        return float("inf"), zero, 0.0
    y = numerator / denominator

    # d(e_wphi)/d(measure), measure by measure.
    de_wphi = {
        "p_nd_theta": 0.0,
        "p_gd_phi_a1": s1_weight * p_nd_rem,
        "p_nd_theta_minus_phi": s1_weight * p_gd,
        "rho1": phi * p_s1 + gamma * int_tau_h,
        "rho2": phi * p_s1 + gamma * int_tau_h,
        "int_h": gamma * (2.0 * theta - 2.0 * theta * int_f),
        "int_tau_h": (
            -(minuend - subtrahend) / theta - gamma * (2.0 - rho_sum)
        ),
        "int_hf": gamma * (-2.0 * theta),
        "int_f": gamma * (-2.0 * theta * int_h),
    }
    de_w0 = {name: 0.0 for name in de_wphi}
    de_w0["p_nd_theta"] = 2.0 * theta

    inv_d = 1.0 / denominator
    dY_dm = {
        name: (-de_w0[name] + y * de_wphi[name]) * inv_d
        for name in de_wphi
    }
    # Explicit phi dependence: only the S1 weight carries raw phi.
    dY_dphi = y * ((rho_sum - 2.0) * p_s1) * inv_d
    return y, dY_dm, dY_dphi


def aggregate_grid(
    values: Mapping[str, "np.ndarray"], phis: "np.ndarray", theta: float
) -> dict:
    """Vectorized :func:`aggregate_breakdown` + :func:`aggregate_partials`.

    ``values`` maps each constituent measure to a ``(p,)`` array over a
    ``phi`` grid; returns a dict of ``(p,)`` arrays: the breakdown
    quantities (``y``, ``y_s1``, ``y_s2``, ``gamma``, ``e_w0``, plus
    scalar ``e_wi``) computed exactly as the scalar breakdown (branch
    conventions at ``phi == 0`` included), and the partials
    (``dY_dm[name]``, ``dY_dphi_explicit``) via the continuous-limit
    formulas of :func:`aggregate_partials` — zeroed past the pole.
    This is the surrogate serving tier's hot path: one request's whole
    grid aggregates in a handful of array operations.
    """
    import numpy as np

    phis = np.asarray(phis, dtype=float)
    e_wi = 2.0 * theta
    e_w0 = 2.0 * theta * values["p_nd_theta"]

    rho_sum = values["rho1"] + values["rho2"]
    p_s1 = values["p_gd_phi_a1"] * values["p_nd_theta_minus_phi"]
    s1_weight = rho_sum * phis + 2.0 * (theta - phis)
    y_s1_g = s1_weight * p_s1
    gamma_g = 1.0 - values["int_tau_h"] / theta
    minuend = (
        2.0 * theta * values["int_h"]
        - (2.0 - rho_sum) * values["int_tau_h"]
    )
    subtrahend = 2.0 * theta * (
        values["int_hf"] + values["int_h"] * values["int_f"]
    )
    y_s2_g = gamma_g * (minuend - subtrahend)

    # Breakdown values follow the scalar branch conventions at phi == 0.
    at_zero = phis == 0.0
    y_s1 = np.where(at_zero, e_w0, y_s1_g)
    y_s2 = np.where(at_zero, 0.0, y_s2_g)
    gamma = np.where(at_zero, 1.0, gamma_g)
    e_wphi = y_s1 + y_s2
    denominator = e_wi - e_wphi
    ok = denominator > 0.0
    safe_d = np.where(ok, denominator, 1.0)
    y = np.where(ok, (e_wi - e_w0) / safe_d, np.inf)

    # Partials via the continuous-limit general formula (the scalar
    # aggregate_partials contract), zeroed where Y has hit its pole.
    d_general = e_wi - (y_s1_g + y_s2_g)
    ok_g = d_general > 0.0
    inv_d = np.where(ok_g, 1.0 / np.where(ok_g, d_general, 1.0), 0.0)
    y_g = (e_wi - e_w0) * inv_d
    de_wphi = {
        "p_nd_theta": np.zeros_like(phis),
        "p_gd_phi_a1": s1_weight * values["p_nd_theta_minus_phi"],
        "p_nd_theta_minus_phi": s1_weight * values["p_gd_phi_a1"],
        "rho1": phis * p_s1 + gamma_g * values["int_tau_h"],
        "rho2": phis * p_s1 + gamma_g * values["int_tau_h"],
        "int_h": gamma_g * (2.0 * theta - 2.0 * theta * values["int_f"]),
        "int_tau_h": (
            -(minuend - subtrahend) / theta - gamma_g * (2.0 - rho_sum)
        ),
        "int_hf": gamma_g * (-2.0 * theta) * np.ones_like(phis),
        "int_f": gamma_g * (-2.0 * theta * values["int_h"]),
    }
    dY_dm = {}
    for name, partial in de_wphi.items():
        de_w0 = e_wi if name == "p_nd_theta" else 0.0
        dY_dm[name] = np.where(ok_g, (-de_w0 + y_g * partial) * inv_d, 0.0)
    dY_dphi = np.where(ok_g, y_g * ((rho_sum - 2.0) * p_s1) * inv_d, 0.0)

    return {
        "y": y,
        "y_s1": y_s1,
        "y_s2": y_s2,
        "gamma": gamma,
        "e_wi": e_wi,
        "e_w0": e_w0,
        "e_wphi": e_wphi,
        "dY_dm": dY_dm,
        "dY_dphi_explicit": dY_dphi,
    }


def build_translation_pipeline() -> TranslationPipeline:
    """The paper's translation pipeline (Figure 3), ready to evaluate."""
    return TranslationPipeline(
        name="performability-index-Y",
        stages=_STAGES,
        measures=_build_measures(),
        aggregate=_aggregate,
    )


# ----------------------------------------------------------------------
# Convenience evaluation entry points
# ----------------------------------------------------------------------
def _make_context(
    solver: ConstituentSolver, phi: float
) -> EvaluationContext:
    return EvaluationContext(
        models=solver.models(),
        parameters={"phi": phi, "theta": solver.params.theta},
    )


def evaluate_index(
    params: GSUParameters,
    phi: float,
    solver: ConstituentSolver | None = None,
) -> PerformabilityEvaluation:
    """Evaluate ``Y(phi)`` for one duration.

    Pass a shared :class:`ConstituentSolver` to reuse compiled models
    across calls (e.g. within a sweep).
    """
    if solver is None:
        solver = ConstituentSolver(params)
    params.validate_phi(phi)
    pipeline = build_translation_pipeline()
    context = _make_context(solver, phi)
    result = pipeline.evaluate(context)
    return _evaluation_from_constituents(params, phi, result.constituents)


def _evaluation_from_constituents(
    params: GSUParameters, phi: float, constituents: dict[str, float]
) -> PerformabilityEvaluation:
    """Assemble a :class:`PerformabilityEvaluation` from solved measures."""
    breakdown = aggregate_breakdown(
        constituents, {"phi": phi, "theta": params.theta}
    )
    worth = WorthModel(
        ideal=breakdown["E_WI"],
        unguarded=breakdown["E_W0"],
        guarded=breakdown["E_Wphi"],
    )
    return PerformabilityEvaluation(
        phi=phi,
        index=PerformabilityIndex(worth),
        worth=worth,
        y_s1=breakdown["Y_S1"],
        y_s2=breakdown["Y_S2"],
        gamma=breakdown["gamma"],
        constituents=constituents,
    )


def evaluate_batch(
    params: GSUParameters,
    phis: Sequence[float],
    solver: ConstituentSolver | None = None,
) -> list[PerformabilityEvaluation]:
    """Evaluate ``Y`` at many durations with one solver pass per model.

    Semantically equivalent to ``[evaluate_index(params, phi) ...]`` (to
    well under 1e-10 on the paper's curves) but the constituent measures
    are batched through :meth:`ConstituentSolver.batch`: one transient
    grid per (model, reward structure) and the phi-independent measures
    solved once, instead of restarting every solver at each sweep point.
    """
    if solver is None:
        solver = ConstituentSolver(params)
    phi_list = [float(phi) for phi in phis]
    return [
        _evaluation_from_constituents(params, phi, constituents)
        for phi, constituents in zip(phi_list, solver.batch(phi_list))
    ]


#: ``Y`` over a sequence of durations, sharing base models — the curve
#: name for :func:`evaluate_batch`.
sweep_phi = evaluate_batch
