"""Phase-space observables A(z) and reference expectation values.

An :class:`Observable` bundles a vectorized evaluator with an optional
sparse polynomial representation over the 2d phase-space variables
(q_1..q_d, p_1..p_d).  Polynomial observables admit exact expectation values
against any Gaussian superposition through one-dimensional normal moments
(:func:`weyl_expectation_gaussian`): under the Wigner calculus each branch
pair (k, l) makes every phase coordinate an independent normal with the
pair's complex mean M_kl and variance h/2 (a single wavepacket: its center).

For observables that depend on position only or momentum only,
:func:`reference_expectation_grid` integrates against the exact marginal
density of the state (|psi(x)|^2, or |psi_hat(xi)|^2 via the closed-form
momentum-space wavepackets), including all branch interference.  Every
branch wavefunction and every term of the observable's per-plane
decomposition factor over the coordinates, so the trapezoid sum over the
resolution**d marginal grid is assembled from one K x K Gram matrix per axis
and term; it equals the literal pointwise sum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb, exp, log
from typing import Callable, Optional

import numpy as np

from .core import GaussianState, _pair_terms, state_norm2, validate_h
from .exceptions import ResourceGuardError
from .quadrature import _trapezoid_weights

__all__ = [
    "PolynomialSymbol",
    "Observable",
    "HenonHeilesSpec",
    "torsional_potential",
    "quartic_momentum",
    "henon_heiles_energy",
    "henon_heiles_total",
    "weyl_expectation_gaussian",
    "reference_expectation_grid",
    "momentum_space_state",
    "observable_from_label",
    "observable_from_polynomial_records",
    "OBSERVABLE_LABELS",
]


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _normal_moment(mean, var: float, e: int):
    """E[X^e] for X ~ N(mean, var) with a real or complex mean (array or
    scalar), via the central moment table
    E[(X-mean)^k] = (k-1)!! var^(k/2) for even k, 0 for odd k.  A term
    scale whose integer factor or power leaves the float range is formed
    from logarithms (OverflowError if the scale itself does)."""
    total = 0.0
    for k in range(0, e + 1, 2):
        try:
            scale = comb(e, k) * _double_factorial(k - 1) * var ** (k // 2)
        except OverflowError:
            scale = exp(log(comb(e, k) * _double_factorial(k - 1)) + (k // 2) * log(var))
        total += scale * mean ** (e - k)
    return total


@dataclass(frozen=True)
class PolynomialSymbol:
    """Sparse polynomial over the 2d phase variables (q_1..q_d, p_1..p_d).

    ``terms`` is a sequence of (coefficient, exponents) pairs where
    ``exponents`` has length 2d with non-negative integer entries.  Terms are
    canonicalized on construction: duplicates merged, zero coefficients
    dropped, and exponent tuples sorted.
    """

    terms: tuple

    def __post_init__(self):
        merged: dict[tuple[int, ...], float] = {}
        width = None
        for coeff, exps in self.terms:
            exps = tuple(int(e) for e in exps)
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be non-negative integers")
            if width is None:
                width = len(exps)
            elif len(exps) != width:
                raise ValueError("all terms must share the same number of variables")
            merged[exps] = merged.get(exps, 0.0) + float(coeff)
        if width is None or width % 2 != 0 or width == 0:
            raise ValueError("terms must cover an even, positive number of variables (2d)")
        canon = tuple(
            (c, e) for e, c in sorted(merged.items()) if c != 0.0
        )
        if not canon:
            canon = ((0.0, (0,) * width),)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_width", width)

    @property
    def n_vars(self) -> int:
        return self._width

    @property
    def dim(self) -> int:
        return self._width // 2

    def degree(self) -> int:
        return max(sum(e) for _, e in self.terms)

    def depends_on(self) -> str:
        """'q', 'p', 'both', or 'const' according to which variables appear."""
        d = self.dim
        has_q = any(any(e[:d]) for _, e in self.terms)
        has_p = any(any(e[d:]) for _, e in self.terms)
        if has_q and has_p:
            return "both"
        if has_q:
            return "q"
        if has_p:
            return "p"
        return "const"

    def evaluate(self, Q, P) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        d = self.dim
        out = np.zeros(Q.shape[0])
        for coeff, exps in self.terms:
            term = np.full(Q.shape[0], coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                col = Q[:, i] if i < d else P[:, i - d]
                term = term * col**e
            out += term
        return out

    def __add__(self, other: "PolynomialSymbol") -> "PolynomialSymbol":
        if self.n_vars != other.n_vars:
            raise ValueError("cannot add polynomials over different variable sets")
        return PolynomialSymbol(self.terms + other.terms)

    def plane_terms(self) -> list[tuple[float, tuple]]:
        """Decompose into per-plane factors for tensor-grid quadrature.

        Returns a list of (coefficient, factors) with one factor per plane;
        a factor is None (constant 1) or a callable f(QQ, PP) acting on the
        plane's meshgrid arrays.
        """
        d = self.dim
        out = []
        for coeff, exps in self.terms:
            factors = []
            for j in range(d):
                a, b = exps[j], exps[d + j]
                if a == 0 and b == 0:
                    factors.append(None)
                else:
                    factors.append(_monomial_factor(a, b))
            out.append((coeff, tuple(factors)))
        return out


def _monomial_factor(a: int, b: int):
    def factor(QQ, PP, a=a, b=b):
        out = np.ones_like(QQ)
        if a:
            out = out * QQ**a
        if b:
            out = out * PP**b
        return out

    return factor


@dataclass(frozen=True)
class Observable:
    """An evaluable phase-space symbol A(z).

    Attributes
    ----------
    label : str
        Short name, also used by the CLI.
    fn : callable
        Vectorized evaluator mapping (Q, P) arrays of shape (m, d) to (m,).
    polynomial : PolynomialSymbol, optional
        Sparse polynomial representation; when present it must agree with
        ``fn`` (checked in the tests).
    plane_terms_fn : callable, optional
        Override returning the per-plane separable decomposition used by the
        tensor-grid quadrature; polynomial observables derive one
        automatically.
    side : str, optional
        'q', 'p', 'both', or 'const'; derived from the polynomial if absent.
    parts : tuple of Observable, optional
        Summands of a sum observable; ``fn`` must be the left-to-right sum
        of the parts' ``fn`` values.  ``estimate_expectation`` evaluates
        each distinct part object once per row block and adds the parts'
        values in that order, so a sum observable listed with its parts (the
        same objects) costs no second evaluation and has the same doubles.
    """

    label: str
    fn: Callable
    polynomial: Optional[PolynomialSymbol] = None
    plane_terms_fn: Optional[Callable] = None
    side: Optional[str] = None
    parts: tuple = ()

    def evaluate(self, Q, P) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.asarray(self.fn(Q, P), dtype=float)

    def depends_on(self) -> str:
        if self.side is not None:
            return self.side
        if self.polynomial is not None:
            return self.polynomial.depends_on()
        return "both"

    def plane_terms(self):
        """Per-plane separable decomposition, or None when unavailable."""
        if self.plane_terms_fn is not None:
            return self.plane_terms_fn()
        if self.polynomial is not None:
            return self.polynomial.plane_terms()
        return None


def torsional_potential(d: int) -> Observable:
    """The torsional potential 2 - cos(q_1) - cos(q_2) in dimension d >= 2."""
    if d < 2:
        raise ValueError("torsional potential requires d >= 2")

    def fn(Q, P):
        return 2.0 - np.cos(Q[:, 0]) - np.cos(Q[:, 1])

    def plane_terms():
        cos_q = lambda QQ, PP: np.cos(QQ)
        terms = [(2.0, (None,) * d)]
        for j in range(2):
            factors = [None] * d
            factors[j] = cos_q
            terms.append((-1.0, tuple(factors)))
        return terms

    return Observable("torsional", fn, plane_terms_fn=plane_terms, side="q")


def quartic_momentum(d: int) -> Observable:
    """The quartic momentum observable |p|^4 = (sum_j p_j^2)^2, degree 4."""
    if d < 1:
        raise ValueError("d must be >= 1")

    def fn(Q, P):
        return np.sum(P * P, axis=1) ** 2

    terms = []
    for j in range(d):
        e = [0] * (2 * d)
        e[d + j] = 4
        terms.append((1.0, tuple(e)))
    for j in range(d):
        for l in range(j + 1, d):
            e = [0] * (2 * d)
            e[d + j] = 2
            e[d + l] = 2
            terms.append((2.0, tuple(e)))
    return Observable("quartic-momentum", fn, polynomial=PolynomialSymbol(tuple(terms)))


@dataclass(frozen=True)
class HenonHeilesSpec:
    """Parameters of the chained Henon-Heiles benchmark system."""

    d: int
    alpha: float = 1.8436
    h: float = 0.0037

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("Henon-Heiles requires d >= 2")
        validate_h(self.h)

    def benchmark_state(self) -> GaussianState:
        """The benchmark wavepacket: q_j = 0.3645 for all j, p = (1, 0, ..., 0)."""
        q = np.full(self.d, 0.3645)
        p = np.zeros(self.d)
        p[0] = 1.0
        return GaussianState.wavepacket(self.h, q, p)


def henon_heiles_energy(spec: HenonHeilesSpec) -> tuple[Observable, Observable]:
    """Kinetic and potential energy symbols of the Henon-Heiles Hamiltonian

        |p|^2 / 2  +  sum_j q_j^2 / 2 + alpha sum_{j<d} (q_j^2 q_{j+1} - q_{j+1}^3 / 3).

    The potential has total degree exactly 3, so its expectation against the
    corrected density mu is exact.
    """
    d, alpha = spec.d, spec.alpha

    def kin_fn(Q, P):
        return 0.5 * np.sum(P * P, axis=1)

    kin_terms = []
    for j in range(d):
        e = [0] * (2 * d)
        e[d + j] = 2
        kin_terms.append((0.5, tuple(e)))
    kinetic = Observable("hh-kinetic", kin_fn, polynomial=PolynomialSymbol(tuple(kin_terms)))

    def pot_fn(Q, P):
        harm = 0.5 * np.sum(Q * Q, axis=1)
        cubic = np.sum(Q[:, :-1] ** 2 * Q[:, 1:] - Q[:, 1:] ** 3 / 3.0, axis=1)
        return harm + alpha * cubic

    pot_terms = []
    for j in range(d):
        e = [0] * (2 * d)
        e[j] = 2
        pot_terms.append((0.5, tuple(e)))
    for j in range(d - 1):
        e = [0] * (2 * d)
        e[j] = 2
        e[j + 1] = 1
        pot_terms.append((alpha, tuple(e)))
        e = [0] * (2 * d)
        e[j + 1] = 3
        pot_terms.append((-alpha / 3.0, tuple(e)))
    potential = Observable("hh-potential", pot_fn, polynomial=PolynomialSymbol(tuple(pot_terms)))
    return kinetic, potential


def henon_heiles_total(spec: HenonHeilesSpec) -> Observable:
    """Total energy symbol of the Henon-Heiles system, the sum observable
    with parts (kinetic, potential) of :func:`henon_heiles_energy`."""
    kinetic, potential = henon_heiles_energy(spec)

    def fn(Q, P):
        return kinetic.fn(Q, P) + potential.fn(Q, P)

    return Observable(
        "hh-total",
        fn,
        polynomial=kinetic.polynomial + potential.polynomial,
        parts=(kinetic, potential),
    )


def weyl_expectation_gaussian(A, state: GaussianState) -> float:
    """Exact normalized expectation <psi|A^w|psi> / <psi|psi> of a polynomial
    symbol against a superposition.

    Each branch pair (k, l) of :func:`~phasespec.core._pair_terms`
    integrates A against a Gaussian whose phase coordinates are independent
    N(M_kl, h/2) variables with complex means, so each monomial reduces to a
    product of one-dimensional normal moments; the pairs are summed with
    their weights W_kl.
    """
    poly = A.polynomial if isinstance(A, Observable) else A
    if not isinstance(poly, PolynomialSymbol):
        raise ValueError("weyl_expectation_gaussian requires a polynomial observable")
    if poly.dim != state.dim:
        raise ValueError("observable and state dimensions differ")
    C, L, M = _pair_terms(state)
    var = state.h / 2.0
    total = np.zeros(C.size, dtype=complex)
    # moments[(i, e)] = E[X_i^e]; terms share most of their factors
    moments: dict[tuple[int, int], np.ndarray] = {}
    for coeff, exps in poly.terms:
        prod = coeff
        for i, e in compress(enumerate(exps), exps):
            if (i, e) not in moments:
                moments[i, e] = _normal_moment(M[:, i], var, e)
            prod = prod * moments[i, e]
        total += prod
    return float(((C * np.exp(L)) @ total).real / state_norm2(state))


def _wavepacket_columns(state: GaussianState, X: np.ndarray) -> np.ndarray:
    """G[i, k] = g_{z_k}(X[i]), the unit wavepacket of branch k at the points
    X of shape (m, d)."""
    h, d = state.h, state.dim
    q, p = state.centers_q[None, :, :], state.centers_p[None, :, :]
    dq = X[:, None, :] - q
    phase = np.sum((X[:, None, :] - 0.5 * q) * p, axis=-1)
    return (np.pi * h) ** (-d / 4.0) * np.exp(-np.sum(dq * dq, axis=-1) / (2.0 * h) + 1j * phase / h)


def momentum_space_state(state: GaussianState) -> GaussianState:
    """The state whose position wavefunction is the h-scaled Fourier transform
    of ``state``.

    Under the transform psi_hat(xi) = (2 pi h)^{-d/2} integral psi(x)
    e^{-i xi.x / h} dx, each branch maps to a wavepacket with center
    (q, p) -> (p, -q) and an unchanged coefficient; validated against an FFT
    oracle in the tests.
    """
    return GaussianState(
        state.h, state.coefficients.copy(), state.centers_p.copy(), -state.centers_q.copy()
    )


def _marginal_axes(state: GaussianState, centers: np.ndarray, resolution: int):
    """Per-axis grids over the center hull plus 12 marginal standard deviations."""
    pad = 12.0 * np.sqrt(state.h / 2.0)
    axes = []
    for i in range(state.dim):
        lo = centers[:, i].min() - pad
        hi = centers[:, i].max() + pad
        axes.append(np.linspace(lo, hi, resolution))
    return axes


def reference_expectation_grid(
    state: GaussianState,
    A: Observable,
    side: str,
    resolution: int = 2048,
    normalized: bool = True,
) -> float:
    """Expectation of a one-sided observable by marginal-density grid
    quadrature.

    ``side='position'`` integrates A(q) |psi(q)|^2 over the exact position
    density of the superposition (interference included); ``side='momentum'``
    does the same with the closed-form momentum-space wavefunction.  By
    default returns integral(A rho) / integral(rho), which removes the
    residual quadrature error of the normalization; ``normalized=False``
    returns the raw integral(A rho), whose value for A = 1 is the state norm
    <psi|psi>.

    The sum is the trapezoid rule on the ``resolution**d`` tensor grid of
    :func:`_marginal_axes`, but the grid is never formed: every branch
    wavefunction factors over the coordinates, and so does each term of
    ``A.plane_terms()`` (a term's factor evaluated at (x, 0) on the position
    side and at (0, x) on the momentum side).  With G_i[x, k] the axis-i
    factor of branch k, trapezoid weights w_i and term factors f_ti, the sum
    is

        sum_t coeff_t  c @ (prod_i (G_i.T * w_i f_ti) @ conj(G_i)) @ conj(c),

    the product taken elementwise over the K x K per-axis Gram matrices.  It
    equals the literal pointwise trapezoid sum up to rounding.  Observables
    without ``plane_terms`` are refused.

    The one-sided marginal construction (d-dimensional grids instead of a
    2d-dimensional phase-space grid) is this library's own reference design;
    it is exact because the marginal densities are known in closed form.
    """
    if side not in ("position", "momentum"):
        raise ValueError("side must be 'position' or 'momentum'")
    dep = A.depends_on()
    if dep == "both" or (dep == "q" and side == "momentum") or (dep == "p" and side == "position"):
        raise ValueError(
            f"observable {A.label!r} depends on {dep!r}; not supported by the "
            f"{side}-side marginal reference"
        )
    d = state.dim
    if d > 3:
        raise ResourceGuardError(
            f"marginal grid reference supports d <= 3, got d={d}"
        )
    terms = A.plane_terms()
    if terms is None:
        raise ValueError(
            f"observable {A.label!r} has no per-axis decomposition; the marginal "
            "reference needs a polynomial or plane_terms_fn"
        )
    if any(len(factors) != d for _, factors in terms):
        raise ValueError("observable and state dimensions differ")
    work = state if side == "position" else momentum_space_state(state)
    K = work.n_branches
    # Gram stacks [row, i, k, l]: row 0 integrates the constant 1, row 1 + t
    # the axis-i factor of term t.  Sums and products run in extended
    # precision (80-bit on x86-64) because the terms of A may cancel: in
    # double precision the reference of 2 - cos q_1 - cos q_2 near its
    # minimum kept only 13 correct digits.
    grams = np.empty((len(terms) + 1, d, K, K), dtype=np.clongdouble)
    for i, x in enumerate(_marginal_axes(work, work.centers_q, resolution)):
        w = _trapezoid_weights(x).astype(np.longdouble)
        # unit coefficients: the real ones may give this axis zero norm
        axis_state = GaussianState(
            work.h, np.ones(K), work.centers_q[:, i : i + 1], work.centers_p[:, i : i + 1]
        )
        G = _wavepacket_columns(axis_state, x[:, None]).astype(np.clongdouble)
        args = (x, np.zeros_like(x)) if side == "position" else (np.zeros_like(x), x)
        for row, f in enumerate([None] + [factors[i] for _, factors in terms]):
            wf = w if f is None else w * np.asarray(f(*args), dtype=float)
            grams[row, i] = (G.T * wf) @ G.conj()

    # pair[row, k, l] = sum over the grid of w f psi_k conj(psi_l)
    pair = np.prod(grams, axis=1)
    coeffs = np.array([coeff for coeff, _ in terms])
    c = work.coefficients
    num = float((c @ np.tensordot(coeffs, pair[1:], axes=1) @ c.conj()).real)
    den = float((c @ pair[0] @ c.conj()).real)
    return num / den if normalized else num


OBSERVABLE_LABELS = ("torsional", "quartic-momentum", "hh-kinetic", "hh-potential", "hh-total")


def observable_from_label(label: str, d: int, alpha: float = 1.8436) -> Observable:
    """Build a named observable for dimension d.  Unknown labels raise a
    ValueError listing the available names."""
    if label == "torsional":
        return torsional_potential(d)
    if label == "quartic-momentum":
        return quartic_momentum(d)
    if label in ("hh-kinetic", "hh-potential", "hh-total"):
        spec = HenonHeilesSpec(d=d, alpha=alpha)
        if label == "hh-total":
            return henon_heiles_total(spec)
        kinetic, potential = henon_heiles_energy(spec)
        return kinetic if label == "hh-kinetic" else potential
    raise ValueError(
        f"unknown observable label {label!r}; available: {', '.join(OBSERVABLE_LABELS)}"
    )


def observable_from_polynomial_records(records, d: int) -> Observable:
    """Build a polynomial observable from (coefficient, exponent-list) records
    over the 2d variables (q_1..q_d, p_1..p_d)."""
    terms = []
    for rec in records:
        if not isinstance(rec, (list, tuple)) or len(rec) != 2:
            raise ValueError(f"polynomial record {rec!r} must be [coeff, exponents]")
        coeff, exps = rec
        if not isinstance(coeff, (int, float, np.integer, np.floating)) or isinstance(coeff, bool):
            raise ValueError(f"polynomial coefficient must be a number, got {coeff!r}")
        if not isinstance(exps, (list, tuple, np.ndarray)) or not all(
            isinstance(e, (int, np.integer)) and not isinstance(e, bool) for e in exps
        ):
            raise ValueError(f"polynomial exponents must be a list of integers, got {exps!r}")
        if len(exps) != 2 * d:
            raise ValueError(
                f"polynomial record needs {2 * d} exponents for d={d}, got {len(exps)}"
            )
        terms.append((float(coeff), tuple(int(e) for e in exps)))
    poly = PolynomialSymbol(tuple(terms))
    return Observable("polynomial", poly.evaluate, polynomial=poly)
