"""Phase-space observables A(z) and exact expectation values.

An :class:`Observable` bundles a vectorized evaluator with an optional
sparse symbol over the 2d phase-space variables (q_1..q_d, p_1..p_d): a sum
of terms coeff * prod_i x_i^e_i cos(w_i x_i), where a frequency w_i = 0
leaves variable i without a cosine.  Such symbols admit exact expectation
values against any Gaussian superposition through one-dimensional normal
moments (:func:`weyl_expectation_gaussian`): under the Wigner calculus each
branch pair (k, l) makes every phase coordinate an independent normal with
the pair's complex mean M_kl and variance h/2 (a single wavepacket: its
center).

Evaluation, the exact reference and the tensor-grid plane rows all read one
factor table per symbol (:attr:`PolynomialSymbol.factor_table`): each distinct
factor x_i^e cos(w x_i) is computed once, and the terms multiply them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import comb, exp, isfinite, log
from operator import add
from typing import Callable, Optional

import numpy as np

from .core import GaussianState, _pair_terms, state_norm2, validate_h

__all__ = [
    "PolynomialSymbol",
    "Observable",
    "HenonHeilesSpec",
    "torsional_potential",
    "quartic_momentum",
    "henon_heiles_energy",
    "henon_heiles_total",
    "weyl_expectation_gaussian",
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


def _cosine_moment(mean, var: float, e: int, w: float):
    """E[X^e cos(w X)] for X ~ N(mean, var), with cos(w X) written as the
    mean of exp(+-i w X): shifting the Gaussian by i s w var gives
    (1/2) sum_{s = +-1} exp(i s w mean - w^2 var / 2) E[(mean + i s w var + sqrt(var) Z)^e]."""
    if not w:
        return _normal_moment(mean, var, e)
    return 0.5 * sum(
        np.exp(1j * s * w * mean - w * w * var / 2.0) * _normal_moment(mean + 1j * s * w * var, var, e)
        for s in (1.0, -1.0)
    )


def _factor(x, e: int, w: float):
    """The factor x^e cos(w x), without the cosine for w = 0."""
    return x**e * np.cos(w * x) if w else x**e


def _term_order(item):
    """Canonical term order: by exponents, then by the (variable, frequency)
    pairs of the cosine factors, so a term without cosines comes first."""
    (exps, freqs), _ = item
    return exps, tuple(compress(enumerate(freqs), freqs)) if any(freqs) else ()


@dataclass(frozen=True)
class PolynomialSymbol:
    """Sparse symbol over the 2d phase variables (q_1..q_d, p_1..p_d).

    ``terms`` is a sequence of (coefficient, exponents) or (coefficient,
    exponents, frequencies) records; exponents are 2d non-negative integers
    and frequencies 2d finite reals, a term being
    coeff * prod_i x_i^e_i cos(w_i x_i) (w_i = 0: no cosine).  Terms are
    canonicalized on construction into (coefficient, exponents, frequencies)
    triples: frequencies made non-negative (cos is even), duplicates merged,
    zero coefficients dropped, and terms sorted (see :func:`_term_order`).
    Coefficients and frequencies must be finite.  ``factor_table`` (built
    on first use) lists the distinct factors (variable, exponent, frequency)
    and per term its coefficient and factor indices in variable order.
    """

    terms: tuple

    def __post_init__(self):
        merged: dict[tuple, float] = {}
        width = zero = None
        for term in self.terms:
            coeff, exps, freqs = term if len(term) == 3 else (*term, ())
            exps = tuple(map(int, exps))
            if min(exps, default=0) < 0:
                raise ValueError("exponents must be non-negative integers")
            if width is None:
                width, zero = len(exps), (0.0,) * len(exps)
            elif len(exps) != width:
                raise ValueError("all terms must share the same number of variables")
            freqs = tuple(abs(float(w)) for w in freqs) or zero
            if len(freqs) != width or not all(map(isfinite, freqs)):
                raise ValueError("cosine frequencies must be finite, one per variable")
            coeff = float(coeff)
            if not isfinite(coeff):
                raise ValueError(f"coefficients must be finite, got {coeff}")
            merged[exps, freqs] = merged.get((exps, freqs), 0.0) + coeff
        if width is None or width % 2 != 0 or width == 0:
            raise ValueError("terms must cover an even, positive number of variables (2d)")
        canon = tuple(
            (c, e, w) for (e, w), c in sorted(merged.items(), key=_term_order) if c != 0.0
        )
        if not canon:
            canon = ((0.0, (0,) * width, (0.0,) * width),)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_width", width)

    @property
    def n_vars(self) -> int:
        return self._width

    @property
    def dim(self) -> int:
        return self._width // 2

    def degree(self) -> int:
        """Largest total exponent of a term (cosine factors not counted)."""
        return max(sum(e) for _, e, _ in self.terms)

    @cached_property
    def factor_table(self) -> tuple[tuple, tuple]:
        """(factors, terms): the distinct (variable, exponent, frequency)
        factors in order of first use, and per term (coefficient, indices of
        its factors in variable order)."""
        index: dict[tuple, int] = {}
        terms = []
        for c, e, w in self.terms:
            # the variables the term depends on: nonzero exponent or frequency
            active = compress(range(len(e)), map(add, e, w) if any(w) else e)
            terms.append((c, tuple(index.setdefault((i, e[i], w[i]), len(index)) for i in active)))
        return tuple(index), tuple(terms)

    def _term_sum(self, F, out):
        """out + sum_t coeff_t prod_f F[f], the terms in order, each product
        formed left to right from its coefficient."""
        for prod, factors in self.factor_table[1]:
            for f in factors:
                prod = prod * F[f]
            out += prod
        return out

    def evaluate(self, Q, P) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        d = self.dim
        F = [_factor(Q[:, i] if i < d else P[:, i - d], e, w) for i, e, w in self.factor_table[0]]
        return self._term_sum(F, np.zeros(Q.shape[0]))

    def __add__(self, other: "PolynomialSymbol") -> "PolynomialSymbol":
        if self.n_vars != other.n_vars:
            raise ValueError("cannot add polynomials over different variable sets")
        return PolynomialSymbol(self.terms + other.terms)


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
        Sparse symbol; when present it must agree with ``fn`` (checked in
        the tests), and it gives the exact reference and the tensor-grid
        plane rows.
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
    parts: tuple = ()

    def evaluate(self, Q, P) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.asarray(self.fn(Q, P), dtype=float)


def torsional_potential(d: int) -> Observable:
    """The torsional potential 2 - cos(q_1) - cos(q_2) in dimension d >= 2."""
    if d < 2:
        raise ValueError("torsional potential requires d >= 2")

    def fn(Q, P):
        return 2.0 - np.cos(Q[:, 0]) - np.cos(Q[:, 1])

    zeros = (0,) * (2 * d)
    terms = [(2.0, zeros)]
    for j in range(2):
        freqs = [0.0] * (2 * d)
        freqs[j] = 1.0
        terms.append((-1.0, zeros, tuple(freqs)))
    return Observable("torsional", fn, polynomial=PolynomialSymbol(tuple(terms)))


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
        if not isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
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
        # q_j^2 q_{j+1} - q_{j+1}^3 / 3 in place: two (m, d - 1) temporaries
        cubic = Q[:, :-1] ** 2
        cubic *= Q[:, 1:]
        top = Q[:, 1:] ** 3
        top /= 3.0
        cubic -= top
        return harm + alpha * np.sum(cubic, axis=1)

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


def weyl_expectation_gaussian(A, state: GaussianState) -> float | list[float]:
    """Exact normalized expectation <psi|A^w|psi> / <psi|psi> of a symbol
    against a superposition.

    Each branch pair (k, l) of :func:`~phasespec.core._pair_terms`
    integrates A against a Gaussian whose phase coordinates are independent
    N(M_kl, h/2) variables with complex means, so each term reduces to a
    product of one-dimensional moments E[X^e cos(w X)]; the pairs are summed
    with their weights W_kl.

    ``A`` (an observable or a symbol) may also be a list or tuple of them;
    the result is then the list of their expectations.  The pair terms, the
    weights and the norm are built once, and each distinct moment once for
    every symbol that has its factor, so each value equals that of a single
    call.
    """
    sequence = isinstance(A, (list, tuple))
    symbols = []
    for X in A if sequence else [A]:
        poly = X.polynomial if isinstance(X, Observable) else X
        if not isinstance(poly, PolynomialSymbol):
            raise ValueError("weyl_expectation_gaussian requires an observable with a symbol")
        if poly.dim != state.dim:
            raise ValueError("observable and state dimensions differ")
        symbols.append(poly)
    if not symbols:
        raise ValueError("weyl_expectation_gaussian needs at least one observable")
    C, L, M = _pair_terms(state)
    weights = C * np.exp(L)
    norm2 = state_norm2(state)
    var = state.h / 2.0
    moments: dict[tuple, np.ndarray] = {}
    values = []
    for poly in symbols:
        for i, e, w in poly.factor_table[0]:
            if (i, e, w) not in moments:
                moments[i, e, w] = _cosine_moment(M[:, i], var, e, w)
        F = [moments[f] for f in poly.factor_table[0]]
        total = poly._term_sum(F, np.zeros(C.size, dtype=complex))
        values.append(float((weights @ total).real / norm2))
    return values if sequence else values[0]


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
