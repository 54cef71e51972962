"""Continuous-time Markov chain engine with Markov reward model solvers.

This subpackage provides the numerical substrate for reward model
solutions used throughout the reproduction:

* :class:`~repro.ctmc.chain.CTMC` — a continuous-time Markov chain backed
  by a sparse generator matrix.
* :mod:`~repro.ctmc.uniformization` — Jensen's uniformization with
  Fox–Glynn truncation of the Poisson weights: one budget-admitted,
  certified walk serving every uniformization solve.
* :mod:`~repro.ctmc.transient` — transient instant-of-time state
  probabilities and expected instant-of-time rewards.
* :mod:`~repro.ctmc.accumulated` — expected accumulated reward over an
  interval ``[0, t]`` (integrated uniformization).
* :mod:`~repro.ctmc.steady_state` — steady-state solvers (direct sparse,
  power method on the uniformized DTMC, Gauss–Seidel, SOR).
* :mod:`~repro.ctmc.absorbing` — absorbing-chain analysis (absorption
  probabilities, expected time to absorption).
* :mod:`~repro.ctmc.dtmc` — embedded and uniformized DTMC helpers.
* :mod:`~repro.ctmc.sensitivity` — finite-difference parameter
  sensitivities of reward measures.

These are the textbook algorithms implemented inside tools such as
UltraSAN and Möbius; the paper's three SAN reward models are compiled to
CTMCs (see :mod:`repro.san.ctmc_builder`) and then solved here.
"""

from repro.ctmc.chain import CTMC
from repro.ctmc.transient import (
    instant_of_time_reward,
    transient_distribution,
    transient_grid,
)
from repro.ctmc.accumulated import (
    accumulated_grid,
    accumulated_reward,
    averaged_interval_reward,
    transient_accumulated_grid,
)
from repro.ctmc.steady_state import steady_state_distribution, steady_state_reward
from repro.ctmc.absorbing import (
    AbsorbingAnalysis,
    absorption_probabilities,
    mean_time_to_absorption,
)
from repro.ctmc.uniformization import (
    TruncationCertificate,
    fox_glynn_weights,
    uniformization_grid,
    uniformize,
)
from repro.ctmc.dtmc import DTMC, embedded_dtmc, uniformized_dtmc
from repro.ctmc.first_passage import (
    first_passage_cdf,
    first_passage_quantile,
    make_absorbing,
    mean_first_passage_time,
)
from repro.ctmc.lumping import LumpedCTMC, check_lumpability, lump
from repro.ctmc.sensitivity import finite_difference_sensitivity

__all__ = [
    "LumpedCTMC",
    "check_lumpability",
    "lump",
    "first_passage_cdf",
    "first_passage_quantile",
    "make_absorbing",
    "mean_first_passage_time",
    "CTMC",
    "DTMC",
    "AbsorbingAnalysis",
    "transient_distribution",
    "transient_grid",
    "uniformization_grid",
    "TruncationCertificate",
    "instant_of_time_reward",
    "accumulated_reward",
    "accumulated_grid",
    "transient_accumulated_grid",
    "averaged_interval_reward",
    "steady_state_distribution",
    "steady_state_reward",
    "absorption_probabilities",
    "mean_time_to_absorption",
    "fox_glynn_weights",
    "uniformize",
    "embedded_dtmc",
    "uniformized_dtmc",
    "finite_difference_sensitivity",
]
