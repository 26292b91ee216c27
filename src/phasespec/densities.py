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

Batched evaluation: every density has a ``*_many`` variant taking point
coordinates Q, P of shape (m, d) and returning shape (m,).  The scalar
functions wrap these for a single :class:`~phasespec.core.PhasePoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianState, PhasePoint, _overlap_factors

__all__ = [
    "CrossTermPolicy",
    "wigner",
    "husimi",
    "hermite_spectrogram",
    "hermite_mixture",
    "mu",
    "laplacian_husimi",
    "wigner_many",
    "husimi_many",
    "hermite_spectrogram_many",
    "hermite_mixture_many",
    "mu_many",
    "mu_combination_many",
    "mu_single_branch_many",
    "laplacian_husimi_many",
]


@dataclass(frozen=True)
class CrossTermPolicy:
    """How branch-pair interference terms are treated.

    In ``neglect`` mode a pair (k, l) is dropped whenever its damping factor
    exp(-|z_k - z_l|^2 / (8h)) falls below ``threshold``; pairs above the
    threshold are kept by pointwise evaluators but cause the branch-mixture
    sampler to refuse.  ``exact`` mode keeps every pair.
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


def _plane_amplitudes(
    state: GaussianState, Q: np.ndarray, P: np.ndarray, O: np.ndarray, planes=slice(None)
) -> np.ndarray:
    """A[j, i] = sum_k c_k zeta_{j,k}(w_i) O_k(w_i) for the selected planes.

    The offsets are laid out plane-major as one (planes, m, K) array and
    contracted with the coefficients in a single (planes * m, K) product.
    """
    cq = state.centers_q[:, planes].T
    cp = state.centers_p[:, planes].T
    zeta = np.empty((cq.shape[0],) + O.shape, dtype=complex)
    np.subtract(cq[:, None, :], Q[:, planes].T[:, :, None], out=zeta.real)
    np.subtract(cp[:, None, :], P[:, planes].T[:, :, None], out=zeta.imag)
    zeta /= np.sqrt(2.0 * state.h)
    zeta *= O[None]
    return (zeta.reshape(-1, O.shape[1]) @ state.coefficients).reshape(cq.shape[0], -1)


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


def mu_single_branch_many(center_q, center_p, h: float, Q, P) -> np.ndarray:
    """Closed form mu_{g_z}(w) = (2 pi h)^-d (1 + d/2 - r^2/(4h)) e^{-r^2/(2h)}
    with r = |w - z|, for a unit-coefficient wavepacket at z."""
    center_q = np.atleast_1d(np.asarray(center_q, dtype=float))
    center_p = np.atleast_1d(np.asarray(center_p, dtype=float))
    d = center_q.size
    Q, P = _points(Q, P, d)
    dq = Q - center_q[None, :]
    dp = P - center_p[None, :]
    r2 = np.sum(dq * dq + dp * dp, axis=-1)
    pref = (2.0 * np.pi * h) ** (-d)
    return pref * (1.0 + d / 2.0 - r2 / (4.0 * h)) * np.exp(-r2 / (2.0 * h))


def _pair_geometry(state, k, l, Q, P):
    """Shared factors of the (k, l) sesquilinear pair term.

    Returns (OkOl, B) with OkOl = O_k(w) conj(O_l(w)) and the bracket
    B(w) = (1 + d/2) - ((w-z_k).(w-z_l) - i sigma(w-z_k, w-z_l)) / (4h),
    so that the mu pair term is (2 pi h)^-d OkOl B.
    """
    h = state.h
    qk, pk = state.centers_q[k], state.centers_p[k]
    ql, pl = state.centers_q[l], state.centers_p[l]
    ak, bk = Q - qk[None, :], P - pk[None, :]
    al, bl = Q - ql[None, :], P - pl[None, :]
    dist2 = np.sum(ak * ak + bk * bk + al * al + bl * bl, axis=-1)
    # sigma(w, z_k - z_l) = Q.(p_k - p_l) - P.(q_k - q_l)
    sig_w = Q @ (pk - pl) - P @ (qk - ql)
    OkOl = np.exp(-dist2 / (4.0 * h) + 1j * sig_w / (2.0 * h))
    dot = np.sum(ak * al + bk * bl, axis=-1)
    sig_pair = np.sum(ak * bl - bk * al, axis=-1)
    B = (1.0 + state.dim / 2.0) - (dot - 1j * sig_pair) / (4.0 * h)
    return OkOl, B


def mu_many(state: GaussianState, Q, P, policy: CrossTermPolicy | None = None) -> np.ndarray:
    """Corrected density mu(w), branch-pairwise closed form.

    Diagonal terms reproduce the single-branch closed form; off-diagonal
    pairs carry the interference term damped by exp(-|z_k - z_l|^2 / (8h))
    and are dropped under a ``neglect`` policy when below its threshold.
    Coefficients enter each (k, l) pair through c_k conj(c_l).
    """
    if policy is None:
        policy = CrossTermPolicy()
    Q, P = _points(Q, P, state.dim)
    pref = (2.0 * np.pi * state.h) ** (-state.dim)
    c = state.coefficients
    damp = policy.pair_damping(state)
    total = np.zeros(Q.shape[0])
    for k in range(state.n_branches):
        OkOk, Bk = _pair_geometry(state, k, k, Q, P)
        total += (abs(c[k]) ** 2) * OkOk.real * Bk.real
        for l in range(k + 1, state.n_branches):
            if policy.mode == "neglect" and damp[k, l] < policy.threshold:
                continue
            OkOl, B = _pair_geometry(state, k, l, Q, P)
            total += 2.0 * (c[k] * np.conj(c[l]) * OkOl * B).real
    return pref * total


def wigner_many(state: GaussianState, Q, P) -> np.ndarray:
    """Wigner function W(w); real-valued but not sign-definite.

    Diagonal branches contribute |c_k|^2 (pi h)^-d e^{-|w - z_k|^2 / h}; each
    pair (k, l) adds an oscillatory term localized at the midpoint of the
    centers:

        2 (pi h)^-d e^{-|w - m|^2 / h}
            Re[ c_k conj(c_l) e^{ i (sigma(z_k, z_l)/2 - sigma(z_k - z_l, w)) / h } ],

    with m = (z_k + z_l)/2.  The constant phase offset sigma(z_k, z_l)/2 is
    forced by the wavepacket phase convention and verified against direct
    Wigner-transform quadrature in the tests.
    """
    Q, P = _points(Q, P, state.dim)
    h, d = state.h, state.dim
    pref = (np.pi * h) ** (-d)
    c = state.coefficients
    cq, cp = state.centers_q, state.centers_p
    total = np.zeros(Q.shape[0])
    for k in range(state.n_branches):
        dq = Q - cq[k][None, :]
        dp = P - cp[k][None, :]
        r2 = np.sum(dq * dq + dp * dp, axis=-1)
        total += (abs(c[k]) ** 2) * np.exp(-r2 / h)
        for l in range(k + 1, state.n_branches):
            mq = 0.5 * (cq[k] + cq[l])
            mp = 0.5 * (cp[k] + cp[l])
            dq = Q - mq[None, :]
            dp = P - mp[None, :]
            r2 = np.sum(dq * dq + dp * dp, axis=-1)
            # sigma(z_k - z_l, w) = (q_k - q_l).P - (p_k - p_l).Q
            sig_w = P @ (cq[k] - cq[l]) - Q @ (cp[k] - cp[l])
            sig_kl = float(np.dot(cq[k], cp[l]) - np.dot(cp[k], cq[l]))
            phase = (0.5 * sig_kl - sig_w) / h
            cross = c[k] * np.conj(c[l]) * np.exp(-r2 / h + 1j * phase)
            total += 2.0 * cross.real
    return pref * total


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


def _scalar(fn, state: GaussianState, w: PhasePoint, *args, **kwargs) -> float:
    if w.dim != state.dim:
        raise ValueError(f"dimension mismatch: point has d={w.dim}, state d={state.dim}")
    return float(fn(state, *args, w.q[None, :], w.p[None, :], **kwargs)[0])


def wigner(state: GaussianState, w: PhasePoint) -> float:
    """Wigner function at a single phase-space point."""
    return _scalar(wigner_many, state, w)


def husimi(state: GaussianState, w: PhasePoint) -> float:
    """Husimi function at a single phase-space point; always >= 0."""
    return _scalar(husimi_many, state, w)


def hermite_spectrogram(state: GaussianState, j: int, w: PhasePoint) -> float:
    """Hermite spectrogram S_j at a single point; always >= 0."""
    return _scalar(lambda s, Q, P: hermite_spectrogram_many(s, j, Q, P), state, w)


def hermite_mixture(state: GaussianState, w: PhasePoint) -> float:
    """(1/d) sum_j S_j at a single point."""
    return _scalar(hermite_mixture_many, state, w)


def mu(state: GaussianState, w: PhasePoint, policy: CrossTermPolicy | None = None) -> float:
    """Corrected density mu at a single point."""
    return _scalar(lambda s, Q, P: mu_many(s, Q, P, policy), state, w)


def laplacian_husimi(state: GaussianState, w: PhasePoint) -> float:
    """Laplacian of the Husimi function at a single point."""
    return _scalar(laplacian_husimi_many, state, w)
