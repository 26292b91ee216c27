"""Phase-space geometry and Gaussian wavepacket states.

Conventions
-----------
A phase-space point is z = (q, p) with position q and momentum p in R^d,
so z lives in R^(2d).  The j-th plane component is z_j = (q_j, p_j).

The isotropic Gaussian wavepacket with width parameter h > 0 centered at
z = (q, p) is

    g_z(x) = (pi h)^(-d/4) exp(i/h p.(x - q/2)) exp(-|x - q|^2 / (2h)),

which is L2-normalized for every center.  Under this phase convention the
inner product of two wavepackets has the closed form

    <g_z1, g_z2> = exp(-|z1 - z2|^2 / (4h)) exp(i sigma(z1, z2) / (2h)),

where sigma(a, b) = a . Omega b = sum_j (a_qj b_pj - a_pj b_qj) is the
standard symplectic product.  :func:`_overlap_factors` evaluates this closed
form; its phase factor is validated against direct position-space quadrature
in the test suite, and all cross-term formulas in :mod:`phasespec.densities`
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint",
    "GaussianState",
    "state_norm2",
]


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a one-dimensional vector of length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def validate_h(h: float) -> float:
    """Check that the semiclassical width parameter is a positive finite real."""
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"semiclassical parameter h must be positive, got {h}")
    return h


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (q, p) in 2d-dimensional phase space.

    Parameters
    ----------
    q : array_like
        Position coordinates, length d.
    p : array_like
        Momentum coordinates, length d.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_float_vector(self.q, "q"))
        object.__setattr__(self, "p", _as_float_vector(self.p, "p"))
        if self.q.size != self.p.size:
            raise ValueError(
                f"q and p must have equal length, got {self.q.size} and {self.p.size}"
            )

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class GaussianState:
    """A finite superposition sum_k c_k g_{z_k} of Gaussian wavepackets.

    All branches share the width parameter h and the dimension d.  The state
    is not normalized in general; its squared norm is :func:`state_norm2`.

    Attributes
    ----------
    h : float
        Semiclassical width parameter, 0 < h.
    coefficients : complex ndarray, shape (K,)
        Branch coefficients c_k.
    centers_q, centers_p : ndarray, shape (K, d)
        Branch centers z_k = (q_k, p_k).
    """

    h: float
    coefficients: np.ndarray
    centers_q: np.ndarray
    centers_p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", validate_h(self.h))
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        cq = np.atleast_2d(np.asarray(self.centers_q, dtype=float))
        cp = np.atleast_2d(np.asarray(self.centers_p, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("at least one branch coefficient is required")
        if cq.shape != cp.shape or cq.ndim != 2 or cq.shape[0] != c.size:
            raise ValueError("branch centers must be (K, d) arrays matching coefficients")
        if cq.shape[1] < 1:
            raise ValueError("dimension must be >= 1")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(cq)) and np.all(np.isfinite(cp))):
            raise ValueError("state data must be finite")
        for arr in (c, cq, cp):
            arr.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "centers_q", cq)
        object.__setattr__(self, "centers_p", cp)
        if state_norm2(self) <= 0.0:
            raise ValueError("state has non-positive squared norm")

    @classmethod
    def from_branches(cls, h: float, branches) -> "GaussianState":
        """Build a state from an iterable of (coefficient, PhasePoint) pairs."""
        branches = list(branches)
        if not branches:
            raise ValueError("at least one branch is required")
        coeffs = np.array([complex(c) for c, _ in branches])
        dims = {z.dim for _, z in branches}
        if len(dims) != 1:
            raise ValueError("all branch centers must share the same dimension")
        cq = np.stack([z.q for _, z in branches])
        cp = np.stack([z.p for _, z in branches])
        return cls(h, coeffs, cq, cp)

    @classmethod
    def wavepacket(cls, h: float, q, p) -> "GaussianState":
        """The single wavepacket g_z with coefficient 1."""
        return cls.from_branches(h, [(1.0, PhasePoint(q, p))])

    @property
    def dim(self) -> int:
        return self.centers_q.shape[1]

    @property
    def n_branches(self) -> int:
        return self.coefficients.size


def _overlap_exponents(state: GaussianState, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """log O[i, k], the exponent of :func:`_overlap_factors`."""
    h = state.h
    dq = Q[:, None, :] - state.centers_q[None, :, :]
    dp = P[:, None, :] - state.centers_p[None, :, :]
    dist2 = np.sum(dq * dq + dp * dp, axis=-1)
    # sigma(w, z_k) = Q . p_k - P . q_k
    sig = Q @ state.centers_p.T - P @ state.centers_q.T
    return -dist2 / (4.0 * h) + 1j * sig / (2.0 * h)


def _overlap_factors(state: GaussianState, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """O[i, k] = <g_{w_i}, g_{z_k}> for evaluation points w_i = (Q[i], P[i])."""
    return np.exp(_overlap_exponents(state, Q, P))


def _pair_terms(state: GaussianState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch pairs k <= l of a superposition as Gaussians with complex means.

    Returns (C, L, M) over the pairs in ``np.triu_indices`` order:
    C = m_kl conj(c_k) c_l with m_kl = 1 on the diagonal and 2 off it,
    L = log <g_{z_k}, g_{z_l}>, and the complex means M = (Mq, Mp) of shape
    (pairs, 2d),

        Mq = (q_k + q_l)/2 + (i/2)(p_l - p_k),
        Mp = (p_k + p_l)/2 - (i/2)(q_l - q_k).

    The pair weight is W_kl = C e^L.  A sesquilinear quantity whose
    single-branch form is f(z) is Re sum_kl W_kl f(M_kl), with f continued
    analytically to complex centres.
    """
    k, l = np.triu_indices(state.n_branches)
    c, q, p = state.coefficients, state.centers_q, state.centers_p
    C = np.where(k == l, 1.0, 2.0) * np.conj(c[k]) * c[l]
    L = _overlap_exponents(state, q, p)[k, l]
    Mq = 0.5 * (q[k] + q[l]) + 0.5j * (p[l] - p[k])
    Mp = 0.5 * (p[k] + p[l]) - 0.5j * (q[l] - q[k])
    return C, L, np.hstack([Mq, Mp])


def state_norm2(state: GaussianState) -> float:
    """Squared norm <psi|psi> = sum_{k,l} conj(c_k) c_l <g_{z_k}, g_{z_l}>.

    Real and strictly positive for any valid state; invariant under
    permutation of the branches.
    """
    c = state.coefficients
    val = np.conj(c) @ _overlap_factors(state, state.centers_q, state.centers_p) @ c
    return float(val.real)
