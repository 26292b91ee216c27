"""Phase-space observables A(z) and reference expectation values.

An :class:`Observable` bundles a vectorized evaluator with an optional
sparse polynomial representation over the 2d phase-space variables
(q_1..q_d, p_1..p_d).  Polynomial observables admit exact expectation values
against a single Gaussian wavepacket through one-dimensional normal moments
(:func:`weyl_expectation_gaussian`): under the Wigner calculus every phase
coordinate is an independent normal with the branch center as mean and
variance h/2.

For observables that depend on position only or momentum only,
:func:`reference_expectation_grid` integrates against the exact marginal
density of the state (|psi(x)|^2, or |psi_hat(xi)|^2 via the closed-form
momentum-space wavepackets), including all branch interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .core import GaussianState, PhasePoint, validate_h
from .exceptions import ResourceGuardError
from .quadrature import _grid_sums

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
    "position_wavefunction",
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


def _normal_moment(mean: float, var: float, e: int) -> float:
    """E[X^e] for X ~ N(mean, var), via the central moment table
    E[(X-mean)^k] = (k-1)!! var^(k/2) for even k, 0 for odd k."""
    total = 0.0
    for k in range(0, e + 1, 2):
        total += comb(e, k) * _double_factorial(k - 1) * var ** (k // 2) * mean ** (e - k)
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
    """

    label: str
    fn: Callable
    polynomial: Optional[PolynomialSymbol] = None
    plane_terms_fn: Optional[Callable] = None
    side: Optional[str] = None

    def evaluate(self, Q, P) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.asarray(self.fn(Q, P), dtype=float)

    def __call__(self, w: PhasePoint) -> float:
        return float(self.evaluate(w.q[None, :], w.p[None, :])[0])

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
    """Total energy symbol of the Henon-Heiles system."""
    kinetic, potential = henon_heiles_energy(spec)

    def fn(Q, P):
        return kinetic.fn(Q, P) + potential.fn(Q, P)

    return Observable("hh-total", fn, polynomial=kinetic.polynomial + potential.polynomial)


def weyl_expectation_gaussian(A, state: GaussianState) -> float:
    """Exact expectation of a polynomial symbol against a single wavepacket.

    Integrates A against the wavepacket's (Gaussian) Wigner function: every
    phase coordinate is an independent N(center, h/2) variable, so each
    monomial reduces to a product of one-dimensional normal moments.  The
    wavepacket is normalized, so no norm division is needed.
    """
    poly = A.polynomial if isinstance(A, Observable) else A
    if not isinstance(poly, PolynomialSymbol):
        raise ValueError("weyl_expectation_gaussian requires a polynomial observable")
    if state.n_branches != 1:
        raise ValueError(
            "weyl_expectation_gaussian supports single-branch states only; "
            "use reference_expectation_grid for superpositions"
        )
    if poly.dim != state.dim:
        raise ValueError("observable and state dimensions differ")
    means = np.concatenate([state.centers_q[0], state.centers_p[0]])
    var = state.h / 2.0
    total = 0.0
    for coeff, exps in poly.terms:
        prod = coeff
        for mean, e in zip(means, exps):
            if e:
                prod *= _normal_moment(mean, var, e)
        total += prod
    return float(total)


def position_wavefunction(state: GaussianState, X) -> np.ndarray:
    """psi(x) = sum_k c_k (pi h)^(-d/4) e^{i p_k.(x - q_k/2)/h} e^{-|x - q_k|^2/(2h)}
    at points X of shape (m, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h, d = state.h, state.dim
    if X.shape[1] != d:
        raise ValueError(f"points must be (m, {d})")
    pref = (np.pi * h) ** (-d / 4.0)
    out = np.zeros(X.shape[0], dtype=complex)
    for k in range(state.n_branches):
        dq = X - state.centers_q[k][None, :]
        phase = (X - 0.5 * state.centers_q[k][None, :]) @ state.centers_p[k]
        out += state.coefficients[k] * np.exp(
            -np.sum(dq * dq, axis=-1) / (2.0 * h) + 1j * phase / h
        )
    return pref * out


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
    work = state if side == "position" else momentum_space_state(state)
    axes = _marginal_axes(work, work.centers_q, resolution)

    def slab_fn(pts):
        rho = np.abs(position_wavefunction(work, pts)) ** 2
        zeros = np.zeros_like(pts)
        vals = A.evaluate(pts, zeros) if side == "position" else A.evaluate(zeros, pts)
        return vals, rho

    num, den = _grid_sums(axes, slab_fn)
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
