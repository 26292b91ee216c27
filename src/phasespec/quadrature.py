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
and offsets zeta_jk = (q_kj - q + i (p_kj - p)) / sqrt(2h) of
:mod:`phasespec.densities`.  The overlap of an isotropic wavepacket factors
per coordinate, O_k(q, p) = a_k(q) b_k(p) on plane j, with

    a_k(q) = exp(-(q - q_k)^2/(4h) + i q p_k/(2h)),
    b_k(p) = exp(-(p - p_k)^2/(4h) - i p q_k/(2h)),

so a plane integral of a factor f_q(q) f_p(p) is a product of two 1-D sums.
On one axis, with trapezoid weights w, write alpha[k] = a_k (or b_k) on the
axis nodes, beta[k] = (q_k - q) alpha[k] (or (p_k - p) alpha[k]) and
X_st[f] = (s * w f) @ conj(t).T for s, t in {alpha, beta}.  Then, with A the
q-axis and B the p-axis Grams and products taken entrywise over (k, l),

    sum w f G_klj          = A_aa[f_q] B_aa[f_p],
    sum w f beta_klj G_klj = A_bb B_aa + A_aa B_bb + i (B_ba A_ab - A_ba B_ab),

the second from 2h zeta_k conj(zeta_l) = (q_k-q)(q_l-q) + (p_k-p)(p_l-p)
+ i [(p_k-p)(q_l-q) - (q_k-q)(p_l-p)].  Each axis Gram is one matrix product
of the stacked (2K, n) table [alpha; beta] with itself, built for every
method, so a Husimi-only call sums the same floats as a shared one.

When the observable is itself a sum of per-plane factors (every symbol
term coeff * prod_i x_i^e_i cos(w_i x_i) is), the full tensor-grid
sum collapses exactly into products of these plane integrals: the result
equals the direct sum over the (points_per_axis)^(2d) grid, evaluated
without materializing it; the test suite checks it against that literal
pointwise sum for d <= 2.

The Gram stacks do not depend on the density; only the final combination
does.  ``tensor_grid_integrals`` therefore walks each axis once, in blocks
of nodes, for any number of observables and methods, and the axis tables
are computed once per block.  Plane j has one Gram row per distinct plane
factor (its factors on q_j and p_j, read from each symbol's factor table)
across all of the observables, row 0 being the constant 1; a term reads on
each plane the row of its factor there, and a row reads the axis Grams of
its q_j and p_j parts, each distinct 1-D part summed once per axis.  A row is
the same float sum whichever terms share it, so every result equals that of
a single-observable, single-method call.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Sequence

import numpy as np

from .core import GaussianState
from .observables import PolynomialSymbol, _factor

__all__ = [
    "plane_axes",
    "tensor_grid_integrals",
    "tensor_grid_expectation",
]

# Nodes per block of one axis in tensor_grid_integrals.  The walk never builds
# an array of points_per_axis entries, so its memory stays flat at any grid
# size.  With 4096-node blocks every call mapped its (2K, 4096) complex
# temporaries afresh (about 0.6 ms of page faults per axis at K = 4), so a
# call at 1e4 points per axis cost 1.2-1.5x more per node than one at 1e5; at
# 1024 nodes the per-node cost is flat from 1e4 points per axis on.
_BLOCK_POINTS = 1024

_METHODS = ("mu", "husimi", "hermite-mixture")


def _plane_bounds(state: GaussianState) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Per-plane ((q_lo, q_hi), (p_lo, p_hi)): the branch hull plus a margin
    of 12 sqrt(h), where the densities are below 1e-30."""
    padding = 12.0 * np.sqrt(state.h)
    cq, cp = state.centers_q, state.centers_p
    return [
        (
            (cq[:, j].min() - padding, cq[:, j].max() + padding),
            (cp[:, j].min() - padding, cp[:, j].max() + padding),
        )
        for j in range(state.dim)
    ]


def plane_axes(state: GaussianState, points_per_axis: int = 160) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-plane (q_axis, p_axis): ``np.linspace`` over the bounds of
    :func:`_plane_bounds`, the grid that tensor_grid_integrals sums over."""
    return [
        tuple(np.linspace(lo, hi, points_per_axis) for lo, hi in plane)
        for plane in _plane_bounds(state)
    ]


def _axis_blocks(lo: float, hi: float, n: int):
    """(nodes, trapezoid weights) of ``np.linspace(lo, hi, n)`` in consecutive
    blocks of _BLOCK_POINTS nodes, by linspace's own arithmetic (node i is
    i * step + lo, the last node hi), so each block is bit-equal to its slice
    of the whole axis.  The weight spacing is node 1 minus node 0."""
    if n < 2:
        raise ValueError(f"a quadrature grid needs at least 2 points per axis, got {n}")
    step = (hi - lo) / (n - 1)
    spacing = (hi if n == 2 else step + lo) - lo
    for start in range(0, n, _BLOCK_POINTS):
        x = np.arange(start, min(start + _BLOCK_POINTS, n), dtype=float)
        x *= step
        x += lo
        w = np.full(x.size, spacing)
        if start == 0:
            w[0] = spacing / 2.0
        if start + x.size == n:
            x[-1] = hi
            w[-1] = spacing / 2.0
        yield x, w


def _axis_grams(h: float, centers: np.ndarray, phase: np.ndarray, bounds, n: int, keys: list) -> np.ndarray:
    """(len(keys), 2K, 2K) stack of the Grams (T * w f) @ conj(T).T on one
    axis, one for each 1-D factor key (a tuple of (variable, exponent,
    frequency), () the constant 1), with T the stacked table [alpha; beta]:
    alpha[k] = exp(-(x - c_k)^2/(4h) + i s_k x/(2h)) for the branch centers c
    on this axis and the phase slopes s, beta[k] = (c_k - x) alpha[k].  One
    batched product per block forms every key's Gram, each the doubles of its
    own product."""
    K = centers.size
    grams = np.zeros((len(keys), 2 * K, 2 * K), dtype=complex)
    c = centers[:, None]
    for x, w in _axis_blocks(*bounds, n):
        alpha = np.exp((x - c) ** 2 / (-4.0 * h) + 1j * (np.multiply.outer(phase, x) * (1.0 / (2.0 * h))))
        T = np.concatenate([alpha, (c - x) * alpha])
        wf = np.array([w * reduce(mul, (_factor(x, e, fw) for _, e, fw in key), 1.0) for key in keys])
        grams += (T * wf[:, None, :]) @ T.conj().T
    return grams


def _axis_parts(rows, d: int) -> list[tuple[tuple, tuple]]:
    """Each plane row's (q part, p part): its factors on q_j and on p_j, the
    1-D factor keys of the two axis walks."""
    return [tuple(tuple(f for f in key if (f[0] >= d) == on_p) for on_p in (False, True)) for key in rows]


def _ordered_product(factors: list):
    """The product of the planes' (K, K) factors, multiplied left to right and
    in place into a copy of the first: the order and doubles of ``np.prod``
    over axis 0 of their stack.  The empty product is 1 + 0j."""
    if not factors:
        return 1.0 + 0j
    out = factors[0].copy()
    for F in factors[1:]:
        out *= F
    return out


def _plane_rows(observables, d: int) -> tuple[list[list[tuple]], list[list[tuple]]]:
    """(rows, term_lists) of a shared plane walk: rows[j] lists the distinct
    plane factors on plane j, each a tuple of (variable, exponent, frequency)
    factors on q_j and p_j, row 0 the constant (); term_lists[i] lists the
    i-th observable's terms as (coefficient, tuple of its row on each plane).
    None is A = 1.
    """
    index = [{(): 0} for _ in range(d)]
    term_lists = []
    for A in observables:
        poly = PolynomialSymbol(((1.0, (0,) * (2 * d)),)) if A is None else A.polynomial
        if poly is None:
            raise ValueError(f"observable {A.label!r} has no symbol for a per-plane decomposition")
        if poly.dim != d:
            raise ValueError("observable and state dimensions differ")
        factors, terms = poly.factor_table
        term_lists.append([])
        for coeff, fs in terms:
            planes: dict[int, tuple] = {}
            for i, e, w in map(factors.__getitem__, fs):
                planes[i % d] = planes.get(i % d, ()) + ((i, e, w),)
            rows = [0] * d
            for j, key in planes.items():
                rows[j] = index[j].setdefault(key, len(index[j]))
            term_lists[-1].append((coeff, tuple(rows)))
    return [list(rows) for rows in index], term_lists


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
    plane_rows, term_lists = _plane_rows(observables, d)
    # Per-plane Gram stacks [row, j, k, l]; plane j fills len(plane_rows[j]) rows.
    I0 = np.zeros((max(map(len, plane_rows)), d, K, K), dtype=complex)
    Ib = np.zeros_like(I0)
    cq, cp = state.centers_q, state.centers_p
    for j, (q_bounds, p_bounds) in enumerate(_plane_bounds(state)):
        parts = _axis_parts(plane_rows[j], d)
        q_keys, p_keys = (list(dict.fromkeys(side)) for side in zip(*parts))
        A = _axis_grams(h, cq[:, j], cp[:, j], q_bounds, points_per_axis, q_keys)
        B = _axis_grams(h, cp[:, j], -cq[:, j], p_bounds, points_per_axis, p_keys)
        # quadrants [row, s, k, t, l] of the rows' stacked Grams X_st, 0 = alpha, 1 = beta
        R = len(parts)
        a = A[[q_keys.index(fq) for fq, _ in parts]].reshape(R, 2, K, 2, K)
        b = B[[p_keys.index(fp) for _, fp in parts]].reshape(R, 2, K, 2, K)
        I0[:R, j] = a[:, 0, :, 0] * b[:, 0, :, 0]
        Ib[:R, j] = (
            a[:, 1, :, 1] * b[:, 0, :, 0]
            + a[:, 0, :, 0] * b[:, 1, :, 1]
            + 1j * (b[:, 1, :, 0] * a[:, 0, :, 1] - a[:, 1, :, 0] * b[:, 0, :, 1])
        )

    # (product, cross) kernels per row tuple, so the density's denominator and
    # a constant term (every row 0) share them, and so do the methods
    kernels: dict[tuple, tuple] = {}

    def combine(method: str, rows: tuple) -> np.ndarray:
        """(K, K) grid integrals of the density's pair kernels from row
        rows[j] of each plane j's stacks: from prod_j I0_j and
        sum_j Ib_j prod_{k != j} I0_k, each product in plane order."""
        if rows not in kernels:
            i0 = [I0[r, j] for j, r in enumerate(rows)]
            cross = sum(Ib[r, j] * _ordered_product(i0[:j] + i0[j + 1 :]) for j, r in enumerate(rows))
            kernels[rows] = _ordered_product(i0), cross
        prod_all, cross = kernels[rows]
        if method == "husimi":
            return prod_all
        if method == "mu":
            return (1.0 + d / 2.0) * prod_all - cross / (4.0 * h)
        return cross / (2.0 * h * d)  # hermite-mixture

    def contract(M: np.ndarray) -> float:
        """(2 pi h)^-d sum_kl c_k conj(c_l) M_kl."""
        c = state.coefficients
        return (2.0 * np.pi * h) ** (-d) * float((c @ M @ c.conj()).real)

    out = {}
    for m in methods:
        den = contract(combine(m, (0,) * d))
        out[m] = [(contract(sum(c * combine(m, rows) for c, rows in terms)), den) for terms in term_lists]
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
