"""Quantum expectation values of Gaussian wavepacket states from smooth
phase-space densities.

The corrected density mu = (1 + d/2) H - (1/2) sum_j S_j combines the Husimi
function H with first-order Hermite spectrograms S_j into a signed mixture
of two probability densities.  Expectations against mu are exact for
polynomial symbols of degree <= 3 and second-order accurate in the width
parameter h for smooth observables, while remaining sampleable from
non-negative component densities; this package provides the densities, exact
and grid-based reference expectations, deterministic (pseudo-random and
Halton) sampling estimators, and a CLI for the benchmark experiments.
"""

__version__ = "0.1.0"

from .core import (
    GaussianState,
    PhasePoint,
    gaussian_overlap,
    state_norm2,
    symplectic_matrix,
    symplectic_product,
)
from .densities import (
    CrossTermPolicy,
    hermite_mixture,
    hermite_spectrogram,
    husimi,
    laplacian_husimi,
    mu,
    wigner,
)
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
    reference_expectation_grid,
    torsional_potential,
    weyl_expectation_gaussian,
)
from .sampling import (
    ComponentSample,
    EstimatorResult,
    PointSource,
    estimate_expectation,
    gamma2_cdf,
    gamma2_inverse_cdf,
    halton_points,
    inverse_normal_cdf,
    sample_component,
)

__all__ = [
    "__version__",
    "PhasePoint",
    "GaussianState",
    "symplectic_product",
    "symplectic_matrix",
    "gaussian_overlap",
    "state_norm2",
    "CrossTermPolicy",
    "wigner",
    "husimi",
    "hermite_spectrogram",
    "hermite_mixture",
    "mu",
    "laplacian_husimi",
    "Observable",
    "PolynomialSymbol",
    "HenonHeilesSpec",
    "torsional_potential",
    "quartic_momentum",
    "henon_heiles_energy",
    "henon_heiles_total",
    "weyl_expectation_gaussian",
    "reference_expectation_grid",
    "observable_from_label",
    "PointSource",
    "ComponentSample",
    "EstimatorResult",
    "halton_points",
    "inverse_normal_cdf",
    "gamma2_cdf",
    "gamma2_inverse_cdf",
    "sample_component",
    "estimate_expectation",
    "NonNegligibleCrossTermsError",
    "ResourceGuardError",
    "NonFiniteResultError",
]
