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
an overflowing e^{-s2/h}.  H and the S_j keep the O(mK) amplitude form below,
which the sampler calls.

Every evaluator is batched: the ``*_many`` functions take point coordinates
Q, P of shape (m, d) and return shape (m,); a single point is a (1, d) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianState, _overlap_factors, _pair_terms

__all__ = [
    "CrossTermPolicy",
    "wigner_many",
    "husimi_many",
    "hermite_spectrogram_many",
    "hermite_mixture_many",
    "mu_many",
    "mu_combination_many",
    "laplacian_husimi_many",
]


@dataclass(frozen=True)
class CrossTermPolicy:
    """How the sampler treats branch-pair interference terms.

    ``neglect`` mode samples the branch mixture sum_k |c_k|^2 rho_{g_{z_k}},
    which leaves out every interference pair (k, l), k != l.  ``threshold``
    only sets when the sampler refuses instead: at a pair damping factor
    exp(-|z_k - z_l|^2 / (8h)) at or above it.  ``exact`` mode keeps every
    pair by importance weighting against the exact densities.  The
    pointwise evaluators always keep every pair.
    """

    mode: str = "exact"
    threshold: float = 1e-14

    def __post_init__(self):
        if self.mode not in ("exact", "neglect"):
            raise ValueError(f"unknown cross-term mode {self.mode!r}")
        if not (np.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError("threshold must be a finite non-negative real")

    def pair_damping(self, state: GaussianState) -> np.ndarray:
        """Matrix of damping factors exp(-|z_k - z_l|^2 / (8h))."""
        dq = state.centers_q[:, None, :] - state.centers_q[None, :, :]
        dp = state.centers_p[:, None, :] - state.centers_p[None, :, :]
        dist2 = np.sum(dq * dq + dp * dp, axis=-1)
        return np.exp(-dist2 / (8.0 * state.h))

    def max_offdiagonal_damping(self, state: GaussianState) -> float:
        if state.n_branches == 1:
            return 0.0
        damp = self.pair_damping(state)
        mask = ~np.eye(state.n_branches, dtype=bool)
        return float(damp[mask].max())


def _points(Q, P, d: int) -> tuple[np.ndarray, np.ndarray]:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if Q.shape != P.shape or Q.ndim != 2 or Q.shape[1] != d:
        raise ValueError(f"evaluation points must be (m, {d}) arrays")
    return Q, P


def husimi_many(state: GaussianState, Q, P) -> np.ndarray:
    """Husimi function H(w) >= 0 at points (Q, P) of shape (m, d)."""
    Q, P = _points(Q, P, state.dim)
    amp = _overlap_factors(state, Q, P) @ state.coefficients
    return (2.0 * np.pi * state.h) ** (-state.dim) * np.abs(amp) ** 2


def _plane_offsets(
    state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray, planes=slice(None)
) -> np.ndarray:
    """Z[j, i, k] = zeta_{j,k}(w_i) O_k(w_i) for the selected planes, laid
    out plane-major as one (planes, m, K) array."""
    cq = state.centers_q[:, planes].T
    cp = state.centers_p[:, planes].T
    zeta = np.empty((cq.shape[0],) + O.shape, dtype=complex)
    np.subtract(cq[:, None, :], Q[:, planes].T[:, :, None], out=zeta.real)
    np.subtract(cp[:, None, :], P[:, planes].T[:, :, None], out=zeta.imag)
    zeta /= np.sqrt(2.0 * state.h)
    zeta *= O[None]
    return zeta


def _plane_amplitudes(
    state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray, planes=slice(None)
) -> np.ndarray:
    """A[j, i] = sum_k c_k zeta_{j,k}(w_i) O_k(w_i) for the selected planes,
    contracted with the coefficients in a single (planes * m, K) product."""
    Z = _plane_offsets(state, Q, P, O, planes)
    return (Z.reshape(-1, O.shape[1]) @ state.coefficients).reshape(Z.shape[0], -1)


def _plane_power_sum(state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray) -> np.ndarray:
    """sum_j |A_j|^2, accumulated plane by plane in order j = 1..d."""
    return np.sum(np.abs(_plane_amplitudes(state, Q, P, O)) ** 2, axis=0)


def hermite_spectrogram_many(state: GaussianState, j: int, Q, P) -> np.ndarray:
    """First-order Hermite spectrogram S_j(w) >= 0 for plane index 1 <= j <= d."""
    if not 1 <= j <= state.dim:
        raise ValueError(f"plane index {j} out of range 1..{state.dim}")
    Q, P = _points(Q, P, state.dim)
    O = _overlap_factors(state, Q, P)
    amp = _plane_amplitudes(state, Q, P, O, slice(j - 1, j))[0]
    return (2.0 * np.pi * state.h) ** (-state.dim) * np.abs(amp) ** 2


def hermite_mixture_many(state: GaussianState, Q, P) -> np.ndarray:
    """Plane average (1/d) sum_j S_j(w); a probability density up to the norm."""
    Q, P = _points(Q, P, state.dim)
    total = _plane_power_sum(state, Q, P, _overlap_factors(state, Q, P))
    return (2.0 * np.pi * state.h) ** (-state.dim) * total / state.dim


def mu_combination_many(state: GaussianState, Q, P) -> np.ndarray:
    """mu(w) evaluated literally as (1 + d/2) H(w) - (1/2) sum_j S_j(w).

    Reference path for the closed-form evaluators; always includes all
    branch-pair interference.
    """
    Q, P = _points(Q, P, state.dim)
    d = state.dim
    O = _overlap_factors(state, Q, P)
    total = (1.0 + d / 2.0) * np.abs(O @ state.coefficients) ** 2
    total -= 0.5 * _plane_power_sum(state, Q, P, O)
    return (2.0 * np.pi * state.h) ** (-d) * total


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


def mu_many(state: GaussianState, Q, P) -> np.ndarray:
    """Corrected density mu(w), as the single-branch closed form
    (2 pi h)^-d (1 + d/2 - s2/(4h)) e^{-s2/(2h)} summed over branch pairs.

    Off-diagonal pairs carry the interference term damped by
    exp(-|z_k - z_l|^2 / (8h)).
    """
    Q, P = _points(Q, P, state.dim)
    h, d = state.h, state.dim
    C, L, s2 = _pair_squares(state, Q, P)
    s2 /= -2.0 * h
    envelope = s2 + L
    np.exp(envelope, out=envelope)
    s2 *= 0.5
    s2 += 1.0 + d / 2.0
    s2 *= envelope
    return (2.0 * np.pi * h) ** (-d) * (s2 @ C).real


def wigner_many(state: GaussianState, Q, P) -> np.ndarray:
    """Wigner function W(w) = (pi h)^-d Re sum_kl W_kl e^{-s2/h}; real-valued
    but not sign-definite.  A pair (k, l) is an oscillatory term localized at
    the midpoint of the centers."""
    Q, P = _points(Q, P, state.dim)
    h = state.h
    C, L, s2 = _pair_squares(state, Q, P)
    s2 /= -h
    s2 += L
    np.exp(s2, out=s2)
    return (np.pi * h) ** (-state.dim) * (s2 @ C).real


def laplacian_husimi_many(state: GaussianState, Q, P) -> np.ndarray:
    """Phase-space Laplacian of the Husimi function via the identity

        Lap H = (2/h) sum_j S_j - (2d/h) H,

    where the Laplacian runs over all 2d phase-space coordinates.
    """
    Q, P = _points(Q, P, state.dim)
    d, h = state.dim, state.h
    O = _overlap_factors(state, Q, P)
    s_sum = _plane_power_sum(state, Q, P, O)
    h_sq = np.abs(O @ state.coefficients) ** 2
    return (2.0 * np.pi * h) ** (-d) * ((2.0 / h) * s_sum - (2.0 * d / h) * h_sq)
