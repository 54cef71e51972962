"""Accumulated-reward moments: closed-form and simulation cases.

The package has one Van Loan moments routine,
:func:`repro.synth.distribution.accumulated_moments`, which returns the
exact ``(mean, variance)`` of ``Y(t) = int_0^t r(X_u) du`` with the
ctmc layer's stiff/sparse dispatch.  These cases pin it against closed
forms, the expectation solver, and SAN simulation.
"""

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.ctmc.accumulated import accumulated_reward
from repro.synth.distribution import accumulated_distribution, accumulated_moments


def uptime_moments(mu: float, t: float) -> tuple[float, float]:
    """Closed-form ``(mean, variance)`` of ``min(T, t)``, ``T ~ Exp(mu)``."""
    mean = (1 - np.exp(-mu * t)) / mu
    second = 2 / mu**2 * (1 - np.exp(-mu * t)) - 2 * t * np.exp(-mu * t) / mu
    return mean, second - mean**2


class TestAgainstClosedForms:
    def test_mean_matches_expectation_solver(self, birth_death_chain):
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        t = 4.0
        mean, _variance = accumulated_moments(birth_death_chain, rewards, t)
        assert mean == pytest.approx(
            accumulated_reward(birth_death_chain, rewards, t), rel=1e-9
        )

    def test_constant_reward_has_zero_variance(self, birth_death_chain):
        mean, variance = accumulated_moments(birth_death_chain, np.ones(4), 5.0)
        assert mean == pytest.approx(5.0)
        assert variance == pytest.approx(0.0, abs=1e-8)

    def test_uptime_variance_exponential_failure(self):
        # Y(t) = min(T, t) with T ~ Exp(mu): closed-form moments.
        mu, t = 0.8, 2.5
        chain = CTMC.two_state_failure(mu)
        mean, variance = accumulated_moments(chain, [1.0, 0.0], t)
        want_mean, want_variance = uptime_moments(mu, t)
        assert mean == pytest.approx(want_mean, rel=1e-8)
        assert variance == pytest.approx(want_variance, rel=1e-8)

    def test_zero_horizon(self, birth_death_chain):
        assert accumulated_moments(birth_death_chain, np.ones(4), 0.0) == (
            0.0,
            0.0,
        )

    def test_negative_time_rejected(self, birth_death_chain):
        with pytest.raises(ValueError):
            accumulated_moments(birth_death_chain, np.ones(4), -1.0)


class TestAgainstSimulation:
    def test_variance_matches_san_simulation(self, simple_san):
        from repro.san.ctmc_builder import build_ctmc
        from repro.san.rewards import RewardStructure
        from repro.san.simulate import SANSimulator

        compiled = build_ctmc(simple_san)
        structure = RewardStructure.from_pairs(
            "in_a", [(lambda m: m["a"] == 1, 1.0)]
        )
        rewards = structure.rate_vector(compiled)
        t = 6.0
        mean, variance = accumulated_moments(compiled.chain, rewards, t)

        sim = SANSimulator(simple_san, seed=13)
        samples = []
        for _ in range(3000):
            total = 0.0
            for _entry, marking, dwell in sim.run_trajectory(t):
                if marking["a"] == 1:
                    total += dwell
            samples.append(total)
        samples = np.asarray(samples)
        assert samples.mean() == pytest.approx(mean, rel=0.03)
        assert samples.std() == pytest.approx(np.sqrt(variance), rel=0.08)


class TestDerivedQuantities:
    def test_std_convenience(self, birth_death_chain):
        # The distribution summary carries the routine's exact moments.
        rewards = [0.0, 1.0, 2.0, 3.0]
        dist = accumulated_distribution(birth_death_chain, rewards, 3.0)
        assert (dist.mean, dist.variance) == accumulated_moments(
            birth_death_chain, rewards, 3.0
        )

    def test_coefficient_of_variation(self):
        mu, t = 1.0, 2.0
        chain = CTMC.two_state_failure(mu)
        mean, variance = accumulated_moments(chain, [1.0, 0.0], t)
        want_mean, want_variance = uptime_moments(mu, t)
        assert np.sqrt(variance) / mean == pytest.approx(
            np.sqrt(want_variance) / want_mean, rel=1e-8
        )

    def test_cv_nan_for_zero_mean(self, birth_death_chain):
        # Zero rewards short-circuit to exact zero moments, so the
        # coefficient of variation std / |mean| is 0/0, not a spurious
        # finite value from round-off.
        mean, variance = accumulated_moments(birth_death_chain, np.zeros(4), 1.0)
        assert (mean, variance) == (0.0, 0.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(np.sqrt(variance) / np.float64(abs(mean)))


class TestGSUApplication:
    def test_worth_variability_during_gop(self):
        # Variability of the forward-progress time of P1new over a short
        # guarded interval, from RMGp.
        from repro.gsu.measures import ConstituentSolver
        from repro.gsu.parameters import PAPER_TABLE3

        compiled = ConstituentSolver(PAPER_TABLE3).rm_gp
        ready = compiled.probability_vector_for(lambda m: m["P1nReady"] == 1)
        t = 1.0  # one hour of guarded operation
        mean, variance = accumulated_moments(compiled.chain, ready, t)
        # Mean forward-progress share ~ rho1.
        assert mean / t == pytest.approx(0.98, abs=0.005)
        # There IS variability (ATs interrupt progress), but small.
        assert 0.0 < np.sqrt(variance) < 0.05 * t
