"""Phase-space densities of Gaussian states.

Implements pointwise evaluation of

* the Wigner function W_psi,
* the Husimi function H_psi (spectrogram with Gaussian window),
* first-order Hermite spectrograms S_j for each plane j = 1..d,
* their plane average, and
* the corrected density mu = (1 + d/2) H - (1/2) sum_j S_j,

for states that are finite superpositions of isotropic Gaussian wavepackets.
H and every S_j are smooth probability densities up to the state norm: each
integrates to <psi|psi>, and so does mu.  mu satisfies mu = H - (h/4) Lap H
pointwise, which makes expectation values against mu exact for polynomial
symbols of total degree <= 3 and accurate to O(h^2) for smooth observables,
versus O(h) for the Husimi function alone.

Evaluation strategy
-------------------
Spectrograms are evaluated through windowed-transform overlaps rather than
numerical convolution.  With O_k(w) = <g_w, g_{z_k}> and the per-plane
complex offsets zeta_{j,k}(w) = ((z_k - w)_qj + i (z_k - w)_pj) / sqrt(2h),

    H(w)   = (2 pi h)^-d |sum_k c_k O_k(w)|^2,
    S_j(w) = (2 pi h)^-d |sum_k c_k zeta_{j,k}(w) O_k(w)|^2.

The constants are fixed by agreement with the single-branch closed forms

    W_{g_z}(w)   = (pi h)^-d  exp(-|w - z|^2 / h),
    H_{g_z}(w)   = (2 pi h)^-d exp(-|w - z|^2 / (2h)),
    S_j,{g_z}(w) = (2 pi h)^-d (|w_j - z_j|^2 / (2h)) exp(-|w - z|^2 / (2h)),
    mu_{g_z}(w)  = (2 pi h)^-d (1 + d/2 - |w - z|^2 / (4h)) exp(-|w - z|^2 / (2h)),

and validated against direct Wigner-transform quadrature and numerical
convolution in the test suite.

The Wigner function and mu are sums over branch pairs k <= l of these
closed forms at complex centres.  With the pair weights
W_kl = m_kl conj(c_k) c_l <g_{z_k}, g_{z_l}> (m_kl = 1 on the diagonal, 2 off
it), the complex means M_kl = (Mq, Mp) of :func:`~phasespec.core._pair_terms`
and the bilinear square s2 = sum (w - M_kl)^2 (not |w - M_kl|^2),

    W(w)  = (pi h)^-d  Re sum_kl W_kl e^{-s2/h},
    mu(w) = (2 pi h)^-d Re sum_kl W_kl (1 + d/2 - s2/(4h)) e^{-s2/(2h)}.

The log of the overlap <g_{z_k}, g_{z_l}> is added to the exponent rather
than multiplied in, so a far-apart pair whose overlap underflows cannot meet
an overflowing e^{-s2/h}.  H and the S_j keep the O(mK) amplitude form above,
from one branch-major (K, m) overlap table O[k, i] = O_k(w_i) that the
sampler's weights share; the plane sums take one (K, m) product zeta_j O at
a time, never a (K, d, m) array.

Every ``*_many`` evaluator takes points Q, P of shape (m, d), one point as
(1, d), and returns shape (m,); it works in 2048-row blocks (``_blocked``),
so a call holds the (m,) output plus one block's tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import GaussianState, _overlap_exponents, _overlap_factors, _pair_terms

__all__ = [
    "NEGLIGIBLE_DAMPING",
    "CrossTermPolicy",
    "wigner_many",
    "husimi_many",
    "hermite_spectrogram_many",
    "hermite_mixture_many",
    "mu_many",
    "mu_combination_many",
    "laplacian_husimi_many",
]


# A pair damping factor below this bounds the pair's cross term, relative to
# the diagonal terms, far below the sampling error of any feasible n, so the
# branch mixture is sampled without weights.
NEGLIGIBLE_DAMPING = 1e-14


@dataclass(frozen=True)
class CrossTermPolicy:
    """How the sampler treats branch-pair interference terms.

    ``neglect`` mode samples the mixture when the cross terms are
    negligible: the branch mixture sum_k |c_k|^2 rho_{g_{z_k}} leaves out
    every pair (k, l), k != l, so it is drawn only while every pair damping
    exp(-|z_k - z_l|^2 / (8h)) is below ``NEGLIGIBLE_DAMPING``.  Otherwise,
    and always in ``exact`` mode, the sampler keeps every pair by importance
    weighting against the exact densities, as the pointwise evaluators do.
    """

    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "neglect"):
            raise ValueError(f"unknown cross-term mode {self.mode!r}")

    def pair_damping(self, state: GaussianState) -> np.ndarray:
        """Matrix of damping factors exp(-|z_k - z_l|^2 / (8h)) = |<g_{z_k}, g_{z_l}>|^(1/2)."""
        return np.exp(0.5 * _overlap_exponents(state, state.centers_q, state.centers_p).real)

    def max_offdiagonal_damping(self, state: GaussianState) -> float:
        """The largest pair damping factor over k != l (0 for one branch)."""
        if state.n_branches == 1:
            return 0.0
        damp = self.pair_damping(state)
        np.fill_diagonal(damp, 0.0)
        return float(damp.max())

    def weights_needed(self, state: GaussianState) -> bool:
        """Whether sampling ``state`` needs importance weights: in ``exact``
        mode always, else when a pair damping is >= ``NEGLIGIBLE_DAMPING``."""
        return self.mode == "exact" or self.max_offdiagonal_damping(state) >= NEGLIGIBLE_DAMPING


def _points(Q, P, d: int) -> tuple[np.ndarray, np.ndarray]:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if Q.shape != P.shape or Q.ndim != 2 or Q.shape[1] != d:
        raise ValueError(f"evaluation points must be (m, {d}) arrays")
    return Q, P


def _blocked(kernel):
    """Checks (Q, P) once and runs the pointwise ``kernel`` on ``core._BLOCK_ROWS``-row slices,
    so every double is that of one call; a lone last row (another BLAS path) joins the block before."""
    @functools.wraps(kernel)
    def evaluate(state: GaussianState, Q, P, *args) -> np.ndarray:
        Q, P = _points(Q, P, state.dim)
        out = np.empty(Q.shape[0])
        starts = list(range(0, Q.shape[0] - 1, core._BLOCK_ROWS)) or [0]
        for lo, hi in zip(starts, starts[1:] + [Q.shape[0]]):
            out[lo:hi] = kernel(state, Q[lo:hi], P[lo:hi], *args)
        return out
    return evaluate


@_blocked
def husimi_many(state: GaussianState, Q, P) -> np.ndarray:
    """Husimi function H(w) >= 0 at points (Q, P) of shape (m, d)."""
    amp = state.coefficients @ _overlap_factors(state, Q, P)
    return (2.0 * np.pi * state.h) ** (-state.dim) * np.abs(amp) ** 2


def _plane_offset(state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray, j: int) -> np.ndarray:
    """Z[k, i] = zeta_{j,k}(w_i) O[k, i] on plane j (0-based), branch-major
    like the overlap table O."""
    Z = np.empty(O.shape, dtype=complex)
    np.subtract(state.centers_q[:, j, None], Q[:, j], out=Z.real)
    np.subtract(state.centers_p[:, j, None], P[:, j], out=Z.imag)
    # a product with the reciprocal: the doubles of a complex division by sqrt(2h), far cheaper
    Z *= 1.0 / np.sqrt(2.0 * state.h)
    Z *= O
    return Z


def _plane_power_sum(state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray) -> np.ndarray:
    """sum_j |sum_k c_k zeta_{j,k} O_k|^2, accumulated one plane at a time in
    order j = 1..d, so every temporary stays (K, m)."""
    total = np.zeros(O.shape[1])
    for j in range(state.dim):
        total += np.abs(state.coefficients @ _plane_offset(state, Q, P, O, j)) ** 2
    return total


def hermite_spectrogram_many(state: GaussianState, j: int, Q, P) -> np.ndarray:
    """First-order Hermite spectrogram S_j(w) >= 0 for plane index 1 <= j <= d."""
    if not 1 <= j <= state.dim:
        raise ValueError(f"plane index {j} out of range 1..{state.dim}")
    return _hermite_spectrogram(state, Q, P, j - 1)


@_blocked
def _hermite_spectrogram(state: GaussianState, Q, P, j: int) -> np.ndarray:
    O = _overlap_factors(state, Q, P)
    amp = state.coefficients @ _plane_offset(state, Q, P, O, j)
    return (2.0 * np.pi * state.h) ** (-state.dim) * np.abs(amp) ** 2


@_blocked
def hermite_mixture_many(state: GaussianState, Q, P) -> np.ndarray:
    """Plane average (1/d) sum_j S_j(w); a probability density up to the norm."""
    total = _plane_power_sum(state, Q, P, _overlap_factors(state, Q, P))
    return (2.0 * np.pi * state.h) ** (-state.dim) * total / state.dim


def _amplitude_powers(state: GaussianState, Q, P) -> tuple[np.ndarray, np.ndarray]:
    """(|sum_k c_k O_k|^2, sum_j |sum_k c_k zeta_{j,k} O_k|^2) from one table."""
    O = _overlap_factors(state, Q, P)
    return np.abs(state.coefficients @ O) ** 2, _plane_power_sum(state, Q, P, O)


@_blocked
def mu_combination_many(state: GaussianState, Q, P) -> np.ndarray:
    """mu(w) evaluated literally as (1 + d/2) H(w) - (1/2) sum_j S_j(w).

    Reference path for the closed-form evaluators; always includes all
    branch-pair interference.
    """
    d = state.dim
    h_sq, s_sum = _amplitude_powers(state, Q, P)
    return (2.0 * np.pi * state.h) ** (-d) * ((1.0 + d / 2.0) * h_sq - 0.5 * s_sum)


def _pair_squares(state: GaussianState, Q: np.ndarray, P: np.ndarray):
    """(C, L, s2) with C, L from :func:`~phasespec.core._pair_terms` and the
    (m, pairs) bilinear squares s2 = sum over the 2d coordinates of
    (w - M_kl)^2, accumulated one coordinate at a time in place."""
    C, L, M = _pair_terms(state)
    s2 = np.zeros((Q.shape[0], C.size), dtype=complex)
    t = np.empty_like(s2)
    for j, x in enumerate(np.concatenate((Q.T, P.T))):
        np.subtract(x[:, None], M[:, j], out=t)
        s2 += np.multiply(t, t, out=t)
    return C, L, s2


@_blocked
def mu_many(state: GaussianState, Q, P) -> np.ndarray:
    """Corrected density mu(w), as the single-branch closed form
    (2 pi h)^-d (1 + d/2 - s2/(4h)) e^{-s2/(2h)} summed over branch pairs.

    Off-diagonal pairs carry the interference term damped by
    exp(-|z_k - z_l|^2 / (8h)).
    """
    h, d = state.h, state.dim
    C, L, s2 = _pair_squares(state, Q, P)
    s2 /= -2.0 * h
    envelope = s2 + L
    np.exp(envelope, out=envelope)
    s2 *= 0.5
    s2 += 1.0 + d / 2.0
    s2 *= envelope
    return (2.0 * np.pi * h) ** (-d) * (s2 @ C).real


@_blocked
def wigner_many(state: GaussianState, Q, P) -> np.ndarray:
    """Wigner function W(w) = (pi h)^-d Re sum_kl W_kl e^{-s2/h}; real-valued
    but not sign-definite.  A pair (k, l) is an oscillatory term localized at
    the midpoint of the centers."""
    h = state.h
    C, L, s2 = _pair_squares(state, Q, P)
    s2 /= -h
    s2 += L
    np.exp(s2, out=s2)
    return (np.pi * h) ** (-state.dim) * (s2 @ C).real


@_blocked
def laplacian_husimi_many(state: GaussianState, Q, P) -> np.ndarray:
    """Phase-space Laplacian of the Husimi function via the identity

        Lap H = (2/h) sum_j S_j - (2d/h) H,

    where the Laplacian runs over all 2d phase-space coordinates.
    """
    d, h = state.dim, state.h
    h_sq, s_sum = _amplitude_powers(state, Q, P)
    return (2.0 * np.pi * h) ** (-d) * ((2.0 / h) * s_sum - (2.0 * d / h) * h_sq)
