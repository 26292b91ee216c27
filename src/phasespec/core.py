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
standard symplectic product.  The phase factor is validated against direct
position-space quadrature in the test suite; all cross-term formulas in
:mod:`phasespec.densities` depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint",
    "GaussianState",
    "symplectic_product",
    "symplectic_matrix",
    "gaussian_overlap",
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

    def plane(self, j: int) -> tuple[float, float]:
        """Return the plane component z_j = (q_j, p_j) for 1 <= j <= d."""
        if not 1 <= j <= self.dim:
            raise ValueError(f"plane index {j} out of range 1..{self.dim}")
        return float(self.q[j - 1]), float(self.p[j - 1])

    def norm2(self) -> float:
        """|z|^2 = sum_j (q_j^2 + p_j^2)."""
        return float(np.dot(self.q, self.q) + np.dot(self.p, self.p))

    def __sub__(self, other: "PhasePoint") -> "PhasePoint":
        _check_same_dim(self, other)
        return PhasePoint(self.q - other.q, self.p - other.p)


def _check_same_dim(a: PhasePoint, b: PhasePoint) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def symplectic_product(a: PhasePoint, b: PhasePoint) -> float:
    """The bilinear form a . Omega b = sum_j (a_qj b_pj - a_pj b_qj).

    Antisymmetric: symplectic_product(a, b) == -symplectic_product(b, a).
    """
    _check_same_dim(a, b)
    return float(np.dot(a.q, b.p) - np.dot(a.p, b.q))


def symplectic_matrix(d: int) -> np.ndarray:
    """The 2d x 2d block matrix Omega = [[0, Id], [-Id, 0]] acting on (q, p)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    omega = np.zeros((2 * d, 2 * d))
    omega[:d, d:] = np.eye(d)
    omega[d:, :d] = -np.eye(d)
    return omega


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


def gaussian_overlap(z1: PhasePoint, z2: PhasePoint, h: float) -> complex:
    """Inner product <g_z1, g_z2> of two unit wavepackets with parameter h.

    Equals exp(-|z1 - z2|^2 / (4h) + i sigma(z1, z2) / (2h)); in particular
    the modulus is exp(-|z1 - z2|^2 / (4h)) and the value is 1 for z1 == z2.
    """
    _check_same_dim(z1, z2)
    h = validate_h(h)
    d2 = (z1 - z2).norm2()
    phase = symplectic_product(z1, z2) / (2.0 * h)
    return complex(np.exp(-d2 / (4.0 * h)) * (np.cos(phase) + 1j * np.sin(phase)))


def _overlap_factors(state: GaussianState, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """O[i, k] = <g_{w_i}, g_{z_k}> for evaluation points w_i = (Q[i], P[i])."""
    h = state.h
    dq = Q[:, None, :] - state.centers_q[None, :, :]
    dp = P[:, None, :] - state.centers_p[None, :, :]
    dist2 = np.sum(dq * dq + dp * dp, axis=-1)
    # sigma(w, z_k) = Q . p_k - P . q_k
    sig = Q @ state.centers_p.T - P @ state.centers_q.T
    return np.exp(-dist2 / (4.0 * h) + 1j * sig / (2.0 * h))


def state_norm2(state: GaussianState) -> float:
    """Squared norm <psi|psi> = sum_{k,l} conj(c_k) c_l <g_{z_k}, g_{z_l}>.

    Real and strictly positive for any valid state; invariant under
    permutation of the branches.
    """
    c = state.coefficients
    val = np.conj(c) @ _overlap_factors(state, state.centers_q, state.centers_p) @ c
    return float(val.real)
