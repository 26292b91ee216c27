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
trapezoid weights w, a plane factor f of A, V[k, i] = O_kj(w_i) (branch-major)
and Z = zeta_j V, the plane integrals over every pair (k, l) are Gram matrices:

    sum_i w f G_klj = (V * w f) @ conj(V).T,
    sum_i w f beta_klj G_klj = 2h (Z * w f) @ conj(Z).T.

When the observable is itself a sum of per-plane factors (every symbol
term coeff * prod_i x_i^e_i cos(w_i x_i) is), the full tensor-grid
sum collapses exactly into products of 2-dimensional plane integrals: the
result equals the direct sum over the (points_per_axis)^(2d) grid, evaluated
without materializing it; the test suite checks it against that literal
pointwise sum for d <= 2.

The Gram stacks do not depend on the density; only the final combination
does.  ``tensor_grid_integrals`` therefore walks each plane once, in blocks
of q-lines, for any number of observables and methods: row 0 of the stack
integrates the constant 1, the rows after it the plane factors of every
observable's terms in order, and V, Z and their conjugates are computed once
per block.  A term whose factor on plane j is None (the constant 1) has
exactly row 0's plane-j Grams, so those are copied after the walk instead of
being summed again; the copy is the same float sum, so every result equals
that of a single-observable, single-method call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import GaussianState, _overlap_factors
from . import densities

__all__ = [
    "plane_axes",
    "tensor_grid_integrals",
    "tensor_grid_expectation",
]

# Grid points per block of q-lines in tensor_grid_integrals.  Whole-plane
# (points, K) temporaries left the process heap larger and slowed the density
# evaluations that ran after the quadrature in the same process.
_BLOCK_POINTS = 4096

_METHODS = ("mu", "husimi", "hermite-mixture")


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


def _observable_terms(observable, d: int):
    if observable is None:
        return [(1.0, (None,) * d)]
    terms = observable.plane_terms()
    if terms is None:
        raise ValueError(
            f"observable {observable.label!r} has no symbol; tensor-grid quadrature "
            "needs one for its per-plane decomposition"
        )
    if any(len(factors) != d for _, factors in terms):
        raise ValueError("observable and state dimensions differ")
    return terms


def tensor_grid_integrals(
    state: GaussianState,
    observable,
    method: str | Sequence[str] = "mu",
    points_per_axis: int = 160,
) -> tuple[float, float] | dict[str, list[tuple[float, float]]]:
    """(integral of A * density, integral of density) on the tensor grid.

    ``method`` is 'mu', 'husimi', or 'hermite-mixture'.  ``observable`` may
    be None for A = 1.  All branch-pair interference terms are included.

    ``observable`` may also be a list or tuple of observables and ``method``
    a list or tuple of methods; the result is then ``out[method][i]``, the
    (num, den) pair of the i-th observable, from one shared walk of the
    planes.  Each pair equals that of a single call.
    """
    single = isinstance(method, str) and not isinstance(observable, (list, tuple))
    methods = [method] if isinstance(method, str) else list(method)
    observables = list(observable) if isinstance(observable, (list, tuple)) else [observable]
    if not methods or not observables:
        raise ValueError("need at least one method and one observable")
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}")
    d, h, K = state.dim, state.h, state.n_branches
    # Only the S_j kernels (mu, hermite-mixture) read the plane offsets Z.
    offsets = any(m != "husimi" for m in methods)
    term_lists = [_observable_terms(A, d) for A in observables]
    # Gram rows: row 0 integrates the constant 1, then come the terms of
    # every observable in order.
    row_factors = [(None,) * d] + [factors for terms in term_lists for _, factors in terms]

    # Per-plane Gram stacks [row, j, k, l].  A row whose plane-j factor is
    # None has row 0's plane-j Grams; they are copied after the walk.
    I0 = np.zeros((len(row_factors), d, K, K), dtype=complex)
    Ib = np.zeros_like(I0)
    for j, (q_axis, p_axis) in enumerate(plane_axes(state, points_per_axis)):
        computed = [0] + [r for r, fs in enumerate(row_factors) if fs[j] is not None]
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
            Vc = V.conj().T
            if offsets:
                Z = densities._plane_offset(plane, Q, P, V, 0)
                Zc = Z.conj().T
            for r in computed:
                f = row_factors[r][j]
                wf = w if f is None else w * np.asarray(f(QQ, PP), dtype=float).ravel()
                I0[r, j] += (V * wf) @ Vc
                if offsets:
                    Ib[r, j] += 2.0 * h * ((Z * wf) @ Zc)
        copied = [r for r, fs in enumerate(row_factors) if r and fs[j] is None]
        I0[copied, j] = I0[0, j]
        Ib[copied, j] = Ib[0, j]

    def combine(method: str, i0: np.ndarray, ib: np.ndarray) -> np.ndarray:
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

    out = {}
    for m in methods:
        den = contract(combine(m, I0[0], Ib[0]))
        pairs, row = [], 1
        for terms in term_lists:
            num = sum(
                coeff * combine(m, I0[row + t], Ib[row + t]) for t, (coeff, _) in enumerate(terms)
            )
            pairs.append((contract(num), den))
            row += len(terms)
        out[m] = pairs
    return out[method][0] if single else out


def tensor_grid_expectation(
    state: GaussianState,
    observable,
    method: str | Sequence[str] = "mu",
    points_per_axis: int = 160,
) -> float | dict[str, list[float]]:
    """Normalized expectation integral(A rho) / integral(rho) on the grid.

    Takes the arguments of :func:`tensor_grid_integrals`; for sequences the
    result is ``out[method][i]``, the expectation of the i-th observable.
    """
    result = tensor_grid_integrals(state, observable, method, points_per_axis)
    if isinstance(result, tuple):
        return result[0] / result[1]
    return {m: [num / den for num, den in pairs] for m, pairs in result.items()}
