"""Batched vs point-by-point evaluation of the performability index.

The batched sweep path (``ConstituentSolver.batch`` /
``evaluate_batch``) must reproduce the scalar path: the issue's
acceptance bar is agreement to 1e-10 on every curve of the four paper
figures, and the runtime's bit-identity guarantees additionally require
that a batch's values do not depend on how the grid was chunked.
"""

import math

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import (
    evaluate_batch,
    evaluate_index,
    sweep_phi,
)
from repro.runtime.spec import figure_campaign
from repro.san.rewards import DEFAULT_METHOD

#: The nine constituent measures the translation pipeline produces.
MEASURE_NAMES = {
    "p_nd_theta",
    "p_gd_phi_a1",
    "p_nd_theta_minus_phi",
    "rho1",
    "rho2",
    "int_h",
    "int_tau_h",
    "int_hf",
    "int_f",
}


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("figure", ["FIG9", "FIG10", "FIG11", "FIG12"])
    def test_figure_curves_agree_within_1e10(self, figure):
        spec = figure_campaign(figure)
        for curve in spec.curves:
            phis = list(curve.grid())
            solver = ConstituentSolver(curve.params)
            batched = sweep_phi(curve.params, phis, solver=solver)
            scalar = [
                evaluate_index(curve.params, phi, solver=solver) for phi in phis
            ]
            for b, s in zip(batched, scalar):
                assert b.phi == s.phi
                assert abs(b.value - s.value) <= 1e-10
                for name in MEASURE_NAMES:
                    assert (
                        abs(b.constituents[name] - s.constituents[name])
                        <= 1e-10
                    )

    def test_batch_is_bitwise_scalar_on_table3(self):
        # The runtime promises bit-identical results across backends and
        # chunkings; that only holds if batched == scalar exactly.
        solver = ConstituentSolver(PAPER_TABLE3)
        phis = [0.0, 2500.0, 5000.0, 7500.0, 10000.0]
        batched = evaluate_batch(PAPER_TABLE3, phis, solver=solver)
        for b, phi in zip(batched, phis):
            s = evaluate_index(PAPER_TABLE3, phi, solver=solver)
            assert b.value == s.value
            assert b.constituents == s.constituents


class TestBatchIsChunkInvariant:
    def test_singletons_match_full_grid_bitwise(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        phis = [0.0, 1000.0, 4000.0, 9000.0, 10000.0]
        full = solver.batch(phis)
        for phi, expected in zip(phis, full):
            alone = solver.batch([phi])[0]
            assert alone == expected

    def test_split_halves_match_full_grid_bitwise(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        phis = [0.0, 2000.0, 4000.0, 6000.0, 8000.0, 10000.0]
        full = solver.batch(phis)
        split = solver.batch(phis[:3]) + solver.batch(phis[3:])
        assert split == full


class TestBatchInterface:
    def test_empty_batch(self):
        assert ConstituentSolver(PAPER_TABLE3).batch([]) == []

    def test_returns_exactly_the_nine_measures(self):
        result = ConstituentSolver(PAPER_TABLE3).batch([5000.0])
        assert set(result[0]) == MEASURE_NAMES
        assert all(
            isinstance(v, float) and math.isfinite(v)
            for v in result[0].values()
        )

    def test_input_order_and_duplicates_preserved(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        phis = [7000.0, 0.0, 7000.0, 3000.0]
        result = solver.batch(phis)
        assert len(result) == len(phis)
        assert result[0] == result[2]
        in_order = {phi: solver.batch([phi])[0] for phi in set(phis)}
        for phi, row in zip(phis, result):
            assert row == in_order[phi]

    def test_invalid_phi_rejected(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        with pytest.raises(ValueError):
            solver.batch([0.0, PAPER_TABLE3.theta + 1.0])


class TestSolverMethodDefault:
    """Satellite: one documented solver-method default, spelled once."""

    def test_default_is_auto(self):
        assert DEFAULT_METHOD == "auto"

    def test_default_and_explicit_auto_agree(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        from repro.gsu.measures import RS_INT_H, RS_ND_ALIVE
        from repro.san.rewards import instant_of_time

        for model, structure, t in [
            (solver.rm_gd, RS_INT_H, 5000.0),
            (solver.rm_nd_new, RS_ND_ALIVE, PAPER_TABLE3.theta),
        ]:
            implicit = instant_of_time(model, structure, t)
            explicit = instant_of_time(model, structure, t, method="auto")
            spelled = instant_of_time(
                model, structure, t, method=DEFAULT_METHOD
            )
            assert implicit == explicit == spelled
