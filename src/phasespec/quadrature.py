"""Deterministic tensor-grid quadrature of observables against densities.

The accuracy experiments need integrals of A times a density over the full
2d-dimensional phase space on a tensor grid with trapezoid weights.  For
branch superpositions every density handled here is a sum over branch pairs
(k, l) of terms that factor across the d planes:

    H   : (2 pi h)^-d  c_k conj(c_l)  prod_j G_klj(w_j)
    mu  : the same kernel times  (1 + d/2) - (1/4h) sum_j beta_klj(w_j)
    Sbar: the same kernel times  (1/(2hd)) sum_j beta_klj(w_j)

with per-plane factors G_klj = O_kj conj(O_lj) and beta_klj =
2h zeta_jk conj(zeta_jl), built from the overlaps O_kj(w_j) = <g_{w_j}, g_{z_kj}>
and offsets zeta_jk of :mod:`phasespec.densities`.  On the plane-j grid, with
trapezoid weights w, a plane factor f of A, V[i, k] = O_kj(w_i) and
Z = zeta_j V, the plane integrals over every pair (k, l) are Gram matrices:

    sum_i w f G_klj = (V.T * w f) @ conj(V),
    sum_i w f beta_klj G_klj = 2h (Z.T * w f) @ conj(Z).

When the observable is itself a sum of per-plane factors (every polynomial
is, and so are the named trigonometric observables), the full tensor-grid
sum collapses exactly into products of 2-dimensional plane integrals: the
result equals the direct sum over the (points_per_axis)^(2d) grid, evaluated
without materializing it.  ``direct_grid_integrals`` keeps the literal
pointwise summation (d <= 2) for cross-validation.
"""

from __future__ import annotations

import numpy as np

from .core import GaussianState, _overlap_factors
from . import densities

__all__ = [
    "plane_axes",
    "tensor_grid_integrals",
    "tensor_grid_expectation",
    "direct_grid_integrals",
]

# Grid points per block of q-lines in tensor_grid_integrals.  Whole-plane
# (points, K) temporaries left the process heap larger and slowed the density
# evaluations that ran after the quadrature in the same process.
_BLOCK_POINTS = 4096

_DENSITY_MANY = {
    "mu": densities.mu_many,
    "husimi": densities.husimi_many,
    "hermite-mixture": densities.hermite_mixture_many,
}


def plane_axes(state: GaussianState, points_per_axis: int = 160) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-plane (q_axis, p_axis) covering the branch hull plus a margin of
    12 sqrt(h), where the densities are below 1e-30."""
    padding = 12.0 * np.sqrt(state.h)
    axes = []
    for j in range(state.dim):
        qlo = state.centers_q[:, j].min() - padding
        qhi = state.centers_q[:, j].max() + padding
        plo = state.centers_p[:, j].min() - padding
        phi = state.centers_p[:, j].max() + padding
        axes.append(
            (np.linspace(qlo, qhi, points_per_axis), np.linspace(plo, phi, points_per_axis))
        )
    return axes


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    if axis.size < 2:
        raise ValueError(f"a quadrature grid needs at least 2 points per axis, got {axis.size}")
    step = axis[1] - axis[0]
    w = np.full(axis.size, step)
    w[0] = w[-1] = step / 2.0
    return w


def _grid_sums(axes, slab_fn) -> tuple[float, float]:
    """(sum w f rho, sum w rho) over the tensor grid of ``axes`` with
    trapezoid weights w.

    The grid is walked in slabs of fixed first coordinate, so the full mesh
    is never materialized.  ``slab_fn`` maps the (m, len(axes)) coordinates
    of one slab to (f, rho).
    """
    weights = [_trapezoid_weights(ax) for ax in axes]
    w_rest = np.ones(())
    for wv in weights[1:]:
        w_rest = np.multiply.outer(w_rest, wv)
    w_rest = w_rest.ravel()
    slab = np.empty((w_rest.size, len(axes)))
    for a, mesh in enumerate(np.meshgrid(*axes[1:], indexing="ij"), start=1):
        slab[:, a] = mesh.ravel()
    num = 0.0
    den = 0.0
    for x0, w0 in zip(axes[0], weights[0]):
        slab[:, 0] = x0
        f, rho = slab_fn(slab)
        wcol = w0 * w_rest
        num += float(np.dot(wcol, f * rho))
        den += float(np.dot(wcol, rho))
    return num, den


def _observable_terms(observable, d: int):
    if observable is None:
        return [(1.0, (None,) * d)]
    terms = observable.plane_terms()
    if terms is None:
        raise ValueError(
            f"observable {observable.label!r} has no per-plane decomposition; "
            "tensor-grid quadrature needs a polynomial or plane_terms_fn"
        )
    return terms


def tensor_grid_integrals(
    state: GaussianState,
    observable,
    method: str = "mu",
    points_per_axis: int = 160,
) -> tuple[float, float]:
    """(integral of A * density, integral of density) on the tensor grid.

    ``method`` is 'mu', 'husimi', or 'hermite-mixture'.  ``observable`` may
    be None for A = 1.  All branch-pair interference terms are included.
    """
    if method not in _DENSITY_MANY:
        raise ValueError(f"unknown method {method!r}")
    d, h, K = state.dim, state.h, state.n_branches
    terms = _observable_terms(observable, d)

    # Per-plane Gram stacks [row, j, k, l]: row 0 integrates the constant 1,
    # row 1 + t the plane-j factor of term t.
    I0 = np.zeros((len(terms) + 1, d, K, K), dtype=complex)
    Ib = np.zeros_like(I0)
    for j, (q_axis, p_axis) in enumerate(plane_axes(state, points_per_axis)):
        # unit coefficients: the real ones may give this plane zero norm
        plane = GaussianState(
            h, np.ones(K), state.centers_q[:, j : j + 1], state.centers_p[:, j : j + 1]
        )
        w_q, w_p = _trapezoid_weights(q_axis), _trapezoid_weights(p_axis)
        lines = max(1, _BLOCK_POINTS // p_axis.size)
        for rows in (slice(s, s + lines) for s in range(0, q_axis.size, lines)):
            QQ, PP = np.meshgrid(q_axis[rows], p_axis, indexing="ij")
            Q, P = QQ.reshape(-1, 1), PP.reshape(-1, 1)
            w = np.outer(w_q[rows], w_p).ravel()
            V = _overlap_factors(plane, Q, P)
            Z = densities._plane_offsets(plane, Q, P, V)[0]
            for t, f in enumerate([None] + [factors[j] for _, factors in terms]):
                wf = w if f is None else w * np.asarray(f(QQ, PP), dtype=float).ravel()
                I0[t, j] += (V.T * wf) @ V.conj()
                Ib[t, j] += 2.0 * h * ((Z.T * wf) @ Z.conj())

    def combine(i0: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """(K, K) grid integrals of the density's pair kernels from the
        (d, K, K) plane stacks."""
        prod_all = np.prod(i0, axis=0)
        if method == "husimi":
            return prod_all
        cross = sum(ib[j] * np.prod(np.delete(i0, j, axis=0), axis=0) for j in range(d))
        if method == "mu":
            return (1.0 + d / 2.0) * prod_all - cross / (4.0 * h)
        return cross / (2.0 * h * d)  # hermite-mixture

    def contract(M: np.ndarray) -> float:
        """(2 pi h)^-d sum_kl c_k conj(c_l) M_kl."""
        c = state.coefficients
        return (2.0 * np.pi * h) ** (-d) * float((c @ M @ c.conj()).real)

    num = sum(coeff * combine(I0[1 + t], Ib[1 + t]) for t, (coeff, _) in enumerate(terms))
    return contract(num), contract(combine(I0[0], Ib[0]))


def tensor_grid_expectation(
    state: GaussianState,
    observable,
    method: str = "mu",
    points_per_axis: int = 160,
) -> float:
    """Normalized expectation integral(A rho) / integral(rho) on the grid."""
    num, den = tensor_grid_integrals(state, observable, method, points_per_axis)
    return num / den


def direct_grid_integrals(
    state: GaussianState,
    observable,
    method: str = "mu",
    points_per_axis: int = 60,
) -> tuple[float, float]:
    """Literal pointwise summation over the same tensor grid (d <= 2 only).

    Slow validation path for :func:`tensor_grid_integrals`; evaluates the
    density with the generic batched evaluators, chunking over the leading
    axis for d = 2.
    """
    if state.dim > 2:
        raise ValueError("direct grid evaluation is limited to d <= 2")
    if method not in _DENSITY_MANY:
        raise ValueError(f"unknown method {method!r}")

    def slab_fn(coords):
        # coordinate order (q1, p1[, q2, p2])
        Q, P = coords[:, 0::2], coords[:, 1::2]
        rho = _DENSITY_MANY[method](state, Q, P)
        return (np.ones_like(rho) if observable is None else observable.evaluate(Q, P)), rho

    flat_axes = [ax for pair in plane_axes(state, points_per_axis) for ax in pair]
    return _grid_sums(flat_axes, slab_fn)
