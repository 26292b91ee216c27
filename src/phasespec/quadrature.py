"""Deterministic tensor-grid quadrature of observables against densities.

The accuracy experiments need integrals of A times a density over the full
2d-dimensional phase space on a tensor grid with trapezoid weights.  For
branch superpositions every density handled here is a sum over branch pairs
(k, l) of terms that factor across the d planes:

    H   : (2 pi h)^-d  c_k conj(c_l)  prod_j G_klj(w_j)
    mu  : the same kernel times  (1 + d/2) - (1/4h) sum_j beta_klj(w_j)
    Sbar: the same kernel times  (1/(2hd)) sum_j beta_klj(w_j)

with per-plane factors

    G_klj    = exp(-(|w_j - z_kj|^2 + |w_j - z_lj|^2) / (4h)
                + i (q (p_kj - p_lj) - p (q_kj - q_lj)) / (2h)),
    beta_klj = (w_j - z_kj).(w_j - z_lj) - i sigma_j(w_j - z_kj, w_j - z_lj).

When the observable is itself a sum of per-plane factors (every polynomial
is, and so are the named trigonometric observables), the full tensor-grid
sum collapses exactly into products of 2-dimensional plane integrals: the
result equals the direct sum over the (points_per_axis)^(2d) grid, evaluated
without materializing it.  ``direct_grid_integrals`` keeps the literal
pointwise summation (d <= 2) for cross-validation.
"""

from __future__ import annotations

import numpy as np

from .core import GaussianState
from . import densities

__all__ = [
    "plane_axes",
    "tensor_grid_integrals",
    "tensor_grid_expectation",
    "direct_grid_integrals",
]


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
    if method not in ("mu", "husimi", "hermite-mixture"):
        raise ValueError(f"unknown method {method!r}")
    d, h = state.dim, state.h
    c = state.coefficients
    axes = plane_axes(state, points_per_axis)
    terms = _observable_terms(observable, d)

    grids = []
    for q_axis, p_axis in axes:
        QQ, PP = np.meshgrid(q_axis, p_axis, indexing="ij")
        W2 = np.outer(_trapezoid_weights(q_axis), _trapezoid_weights(p_axis))
        grids.append((QQ, PP, W2))

    # Factor values per (term, plane), shared across branch pairs.
    factor_vals: list[list[np.ndarray | None]] = []
    for _, factors in terms:
        row = []
        for j, (QQ, PP, _) in enumerate(grids):
            f = factors[j]
            row.append(None if f is None else np.asarray(f(QQ, PP), dtype=float))
        factor_vals.append(row)

    pref = (2.0 * np.pi * h) ** (-d)
    num = 0.0
    den = 0.0
    K = state.n_branches
    for k in range(K):
        for l in range(k, K):
            I0 = np.empty(d, dtype=complex)
            Ib = np.empty(d, dtype=complex)
            IA0 = np.empty((len(terms), d), dtype=complex)
            IAb = np.empty((len(terms), d), dtype=complex)
            for j, (QQ, PP, W2) in enumerate(grids):
                aq_k = QQ - state.centers_q[k, j]
                bp_k = PP - state.centers_p[k, j]
                aq_l = QQ - state.centers_q[l, j]
                bp_l = PP - state.centers_p[l, j]
                dist2 = aq_k * aq_k + bp_k * bp_k + aq_l * aq_l + bp_l * bp_l
                sig_w = QQ * (state.centers_p[k, j] - state.centers_p[l, j]) - PP * (
                    state.centers_q[k, j] - state.centers_q[l, j]
                )
                G = np.exp(-dist2 / (4.0 * h) + 1j * sig_w / (2.0 * h))
                beta = (aq_k * aq_l + bp_k * bp_l) - 1j * (aq_k * bp_l - bp_k * aq_l)
                GW = G * W2
                I0[j] = GW.sum()
                Ib[j] = (beta * GW).sum()
                for t, row in enumerate(factor_vals):
                    if row[j] is None:
                        IA0[t, j] = I0[j]
                        IAb[t, j] = Ib[j]
                    else:
                        IA0[t, j] = (row[j] * GW).sum()
                        IAb[t, j] = (row[j] * beta * GW).sum()

            def combine(i0: np.ndarray, ib: np.ndarray) -> complex:
                prod_all = np.prod(i0)
                if method == "husimi":
                    return prod_all
                cross = complex(0.0)
                for j in range(d):
                    others = np.prod(i0[np.arange(d) != j]) if d > 1 else 1.0
                    cross += ib[j] * others
                if method == "mu":
                    return (1.0 + d / 2.0) * prod_all - cross / (4.0 * h)
                return cross / (2.0 * h * d)  # hermite-mixture

            pair_num = sum(
                coeff * combine(IA0[t], IAb[t]) for t, (coeff, _) in enumerate(terms)
            )
            pair_den = combine(I0, Ib)
            weight = c[k] * np.conj(c[l])
            if l == k:
                num += (weight * pair_num).real
                den += (weight * pair_den).real
            else:
                num += 2.0 * (weight * pair_num).real
                den += 2.0 * (weight * pair_den).real
    return pref * num, pref * den


def tensor_grid_expectation(
    state: GaussianState,
    observable,
    method: str = "mu",
    points_per_axis: int = 160,
) -> float:
    """Normalized expectation integral(A rho) / integral(rho) on the grid."""
    num, den = tensor_grid_integrals(state, observable, method, points_per_axis)
    return num / den


def _density_many(state, method):
    if method == "mu":
        return lambda Q, P: densities.mu_many(state, Q, P)
    if method == "husimi":
        return lambda Q, P: densities.husimi_many(state, Q, P)
    if method == "hermite-mixture":
        return lambda Q, P: densities.hermite_mixture_many(state, Q, P)
    raise ValueError(f"unknown method {method!r}")


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
    dens_fn = _density_many(state, method)

    def slab_fn(coords):
        # coordinate order (q1, p1[, q2, p2])
        Q, P = coords[:, 0::2], coords[:, 1::2]
        rho = dens_fn(Q, P)
        return (np.ones_like(rho) if observable is None else observable.evaluate(Q, P)), rho

    flat_axes = [ax for pair in plane_axes(state, points_per_axis) for ax in pair]
    return _grid_sums(flat_axes, slab_fn)
