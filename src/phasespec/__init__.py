"""Quantum expectation values of Gaussian wavepacket states from smooth
phase-space densities.

The corrected density mu = (1 + d/2) H - (1/2) sum_j S_j combines the Husimi
function H with first-order Hermite spectrograms S_j into a signed mixture
of two probability densities.  Expectations against mu are exact for
polynomial symbols of degree <= 3 and second-order accurate in the width
parameter h for smooth observables, while remaining sampleable from
non-negative component densities; this package provides the densities, exact
reference expectations, tensor-grid quadrature, deterministic (pseudo-random
and Halton) sampling estimators, and a CLI for the benchmark experiments.
"""

__version__ = "0.1.0"

from .core import GaussianState, PhasePoint, state_norm2
from .densities import CrossTermPolicy
from .exceptions import (
    NonFiniteResultError,
    NonNegligibleCrossTermsError,
    ResourceGuardError,
)
from .observables import (
    HenonHeilesSpec,
    Observable,
    PolynomialSymbol,
    henon_heiles_energy,
    henon_heiles_total,
    observable_from_label,
    quartic_momentum,
    torsional_potential,
    weyl_expectation_gaussian,
)
from .sampling import (
    EstimatorResult,
    PointSource,
    estimate_expectation,
    gamma2_inverse_cdf,
    halton_points,
)

__all__ = [
    "__version__",
    "PhasePoint",
    "GaussianState",
    "state_norm2",
    "CrossTermPolicy",
    "Observable",
    "PolynomialSymbol",
    "HenonHeilesSpec",
    "torsional_potential",
    "quartic_momentum",
    "henon_heiles_energy",
    "henon_heiles_total",
    "weyl_expectation_gaussian",
    "observable_from_label",
    "PointSource",
    "EstimatorResult",
    "halton_points",
    "gamma2_inverse_cdf",
    "estimate_expectation",
    "NonNegligibleCrossTermsError",
    "ResourceGuardError",
    "NonFiniteResultError",
]
