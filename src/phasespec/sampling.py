"""Deterministic point sources and the signed-mixture expectation estimator.

The corrected density splits into two non-negative components,

    mu = (1 + d/2) H - (d/2) Sbar,      Sbar = (1/d) sum_j S_j,

both exactly sampleable for branch mixtures: H draws the branch center plus
sqrt(h) times 2d standard normals; Sbar additionally replaces one uniformly
chosen plane by a polar draw whose squared radius is 2h times a Gamma(2, 1)
variate.  One plan of (component, signed weight, first index, stop index)
rows drives the estimator, (H, 1 + d/2, 0, n_husimi) and (Sbar, -d/2,
n_husimi, n) for mu or (H, 1, 0, n) for the Husimi method: it adds the
weighted means of the observable over each row's index range in row order.

Reproducibility contract
------------------------
A :class:`PointSource` emits uniform points in (0, 1)^dimension addressed by
absolute index.  Pseudo-random streams use the counter-based philox4x64
generator (period 2^256): point indices are grouped into fixed chunks of
``CHUNK_SIZE`` and chunk c is generated with key (seed, c), so any
sub-range of the stream is a pure function of (seed, index) alone.  Halton
streams use element indices skip + i with one prime base per coordinate,
and refuse an index whose product with the largest base reaches 2**53.
The estimator accumulates per-chunk partial sums of each plan row and
reduces them over a fixed pairwise tree, so results are bit-identical for
any worker count.

The estimator streams each chunk ``_BLOCK_ROWS`` rows at a time: it reads
a block's uniforms (every stream index once) into a workspace of its
worker thread, assembles the samples in place there (the workspace holds
the uniforms, Q and P only: 4d + 2 doubles a row) and evaluates the
observables (and, when the policy needs them, the importance weights, from
one overlap table in ``_importance_weights``), so no array of a whole
chunk's uniforms is built and the temporaries stay in cache.  A source
serves any row range of a chunk without generating the rows before it; a
Halton chunk plan keeps only its own quotient tables and shares its
low-digit tables with every plan of the same digit counts.  Every sample
depends on its own uniform row only, and the chunk sums are taken over the
whole chunk after the last block, so the row blocking leaves the sums
unchanged.

Per-sample uniform coordinate layout (dimension 2d + 2):

    column 0        branch pick
    column 1        plane pick (Hermite component only)
    column 2        polar angle (Hermite) / first Gaussian coordinate (Husimi)
    column 3        radial quantile (Hermite) / second Gaussian coordinate
    columns 4..     remaining Gaussian coordinates

For the Husimi component columns 2 .. 2d+1 map through the inverse normal
CDF to the q offsets (first d) then the p offsets (last d).  For the Hermite
component columns 4 .. d+2 are the q offsets of the planes other than the
picked one in ascending order, and columns d+3 .. 2d+1 the matching p
offsets.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .core import _BLOCK_ROWS, GaussianState, _overlap_exponents, state_norm2
from .densities import CrossTermPolicy, _plane_power_sum
from .exceptions import NonFiniteResultError
from .observables import Observable

__all__ = [
    "CHUNK_SIZE",
    "halton_points",
    "gamma2_inverse_cdf",
    "PointSource",
    "EstimatorResult",
    "estimate_expectation",
]

CHUNK_SIZE = 32768
_TINY_UNIFORM = 2.0**-54
# Below _GAMMA2_SERIES_U (root x < 0.36) gamma2_inverse_cdf solves on the
# power series of the Gamma(2) CDF, whose first 14 terms reach double
# precision there.
_GAMMA2_SERIES_U = 0.05
_GAMMA2_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(14))
# Largest digit-reversal table per Halton base (b^k entries) and the rows
# _halton_fill converts per pass over the bases.
_DIGIT_TABLE_SIZE = 4096
_HALTON_ROWS = 2048
# The Halton chunk plan each thread read last: a worker reads its chunk's
# row blocks in order, so it builds every plan once.
_THREAD_PLAN = threading.local()


def _first_primes(n: int) -> np.ndarray:
    """The first n primes by sieve."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # n-th prime is below n (log n + log log n) for n >= 6.
    bound = 15 if n < 6 else int(n * (np.log(n) + np.log(np.log(n)))) + 10
    while True:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, int(bound**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= n:
            return primes[:n]
        bound *= 2


def _digit_count(hi: int, base: int) -> int:
    """Number K >= 1 of base-b digits with base**K > hi."""
    ndigits = 1
    while base**ndigits <= hi:
        ndigits += 1
    return ndigits


@functools.cache
def _low_table(base: int, ndigits: int) -> np.ndarray:
    """low[r] = rev_k(r) b^(K-k) for r < B = b^k, with K = ndigits and k the
    largest digit count (at least 1) with b^k <= _DIGIT_TABLE_SIZE and k <= K.

    rev_m(j) is j's m base-b digits reversed: over j = a + b j' with low
    digit a, rev_(m+1)(j) = a b^m + rev_m(j').  The k low digits of an index
    become the k high digits of its reversal.  Built once per (base,
    ndigits) and shared by every plan, so it is read-only.
    """
    rev = np.arange(base, dtype=np.int64)
    k = 1
    while k < ndigits and base ** (k + 1) <= _DIGIT_TABLE_SIZE:
        rev = (rev[:, None] + np.arange(base, dtype=np.int64) * base**k).ravel()
        k += 1
    low = rev * base ** (ndigits - k)
    low.flags.writeable = False
    return low


def _halton_plan(dim: int, first: int, last: int) -> tuple:
    """Per prime base, (B, low, high, base^K) for the Halton elements
    first .. last, with rev_K(a B + r) = high[a - first // B] + low[r].

    K is the digit count of ``last`` in that base and ``low`` its shared
    ``_low_table`` of B = b^k entries; ``high``, the plan's own, holds
    rev_(K-k)(a) for the quotients a of first .. last by B.  Both are exact
    int64 parts of the numerator.  A plan holds tables only, never points.
    """
    primes = _first_primes(dim)
    # Below 2**53 the numerators, which stay below index * base, and base^K
    # are exact doubles.
    if last * int(primes[-1]) >= 2**53:
        raise ValueError(
            f"Halton index bound exceeded: element index {last} times prime base "
            f"{int(primes[-1])} must stay below 2**53"
        )
    plan = []
    for b in (int(p) for p in primes):
        ndigits = _digit_count(last, b)
        low = _low_table(b, ndigits)
        size = low.shape[0]
        quot = np.arange(first // size, last // size + 1, dtype=np.int64)
        # the K - k digits of each quotient, lowest first (B has k digits);
        # after K - k - 1 divisions the quotient is its last digit
        high = 0
        for _ in range(ndigits - _digit_count(size - 1, b) - 1):
            quot, digit = np.divmod(quot, b)
            high = high * b + digit
        high = high * b + quot
        plan.append((size, low, high, float(b**ndigits)))
    return tuple(plan)


def _halton_fill(plan: tuple, first: int, start: int, out: np.ndarray) -> None:
    """Write the elements start, start + 1, ... into the rows of ``out``.

    ``plan`` is the ``_halton_plan`` of a range first .. last that holds
    these elements.  Each base's numerators go straight into their column,
    ``_HALTON_ROWS`` rows at a time, so the writes stay in cache.  The
    numerators of a row block are high[a] + low[r] over the quotients a and
    remainders r of index = a B + r: one or two slices of low when B >= rows,
    else one outer sum.
    """
    num = np.empty(min(out.shape[0], _HALTON_ROWS), dtype=np.int64)
    for lo in range(0, out.shape[0], _HALTON_ROWS):
        block = out[lo : lo + _HALTON_ROWS]
        rows = block.shape[0]
        for col, (size, low, high, scale) in enumerate(plan):
            a, r = divmod(start + lo, size)
            a -= first // size
            if size >= rows:
                values = num[:rows]
                split = min(size - r, rows)
                np.add(high[a], low[r : r + split], out=values[:split])
                if split < rows:
                    np.add(high[a + 1], low[: rows - split], out=values[split:])
            else:
                touched = (r + rows - 1) // size + 1
                values = (high[a : a + touched, None] + low).ravel()[r : r + rows]
            np.divide(values, scale, out=block[:, col])


def halton_points(n: int, dim: int, skip: int) -> np.ndarray:
    """Elements skip, skip+1, ..., skip+n-1 of the Halton sequence in (0, 1)^dim.

    Coordinate i uses the van der Corput radical inverse in the i-th prime
    base.  Every base uses the digit count K of the last index, and each
    value is the exact integer numerator rev_K(index), the index's K base-b
    digits reversed, divided once by base^K.  An index a B + r with
    B = b^k <= _DIGIT_TABLE_SIZE has the numerator
    rev_k(r) b^(K-k) + rev_(K-k)(a), as its k low digits become the high
    digits of its reversal: a row block adds slices of a table over r (see
    ``_low_table``) to the few high-digit reversals of its quotients a.
    This builds the same exact integer as a digit-by-digit loop, so the
    values do not depend on the table size.  Both the numerator and base^K
    are exact doubles, so every value is the correctly rounded double of
    the exact rational.  Element index 0 is the degenerate all-zero point,
    so callers should use skip >= 1.

    Parameters
    ----------
    n : int
        Number of points.
    dim : int
        Number of coordinates.
    skip : int
        Index of the first element (>= 1 recommended).

    The last index times the largest prime base in use must stay below
    2**53, or a ValueError is raised.  The result is a C-contiguous
    (n, dim) float64 array, filled by ``_halton_fill`` from the
    ``_halton_plan`` of skip .. last index.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < 0 or skip < 0:
        raise ValueError("need n >= 0, skip >= 0")
    dim, skip = operator.index(dim), operator.index(skip)
    plan = _halton_plan(dim, skip, skip + max(int(n) - 1, 0))
    out = np.empty((n, dim))
    _halton_fill(plan, skip, skip, out)
    return out


def gamma2_inverse_cdf(u):
    """Quantile of the unit-scale Gamma(2) distribution, the inverse of its
    CDF F(x) = 1 - (1 + x) e^{-x}, for u in the open interval (0, 1).

    A vectorised Newton solve of F(x) = u.  It starts from
    x0 = s + s^2/3 + s^3/36 with s = sqrt(2t), the leading terms of the
    inverse series of x - log1p(x) = t = -log1p(-u); x0 lies above the root
    (up to rounding at small u).  For u >= 0.05 it takes four steps on
    log1p(x) - x = log1p(-u).  That residual cancels to a relative error of
    about eps / x, so for u < 0.05 (x < 0.36) the root comes instead from
    three steps on the power series F(x) = x^2 sum_k (-1)^k (k+1) x^k / (k+2)!,
    which does not cancel.  Within a few ulps of 40-digit roots from
    u = 2^-54 to 1 - 2^-53; checked against mpmath and scipy's gammaincinv
    in the tests.
    """
    arr = np.asarray(u, dtype=float)
    # written so that NaN fails too
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("gamma2_inverse_cdf requires 0 < u < 1")
    v = arr.ravel()
    t = -np.log1p(-v)
    s = np.sqrt(2.0 * t)
    x = s + s * s / 3.0 + s * s * s / 36.0
    small = np.flatnonzero(v < _GAMMA2_SERIES_U)
    xs, us = x[small], v[small]
    for _ in range(3):
        series = np.full_like(xs, _GAMMA2_SERIES[-1])
        for c in _GAMMA2_SERIES[-2::-1]:
            series = series * xs + c
        xs = xs - (xs * xs * series - us) / (xs * np.exp(-xs))
    # The log-form steps run on every entry (cheaper than gathering the
    # large ones); the small ones are then overwritten.
    for _ in range(4):
        x = x + (np.log1p(x) - x + t) * (1.0 + x) / x
    x[small] = xs
    return float(x[0]) if np.isscalar(u) or arr.ndim == 0 else x.reshape(arr.shape)


@dataclass(frozen=True)
class PointSource:
    """A reproducible stream of uniform points in (0, 1)^dimension.

    ``kind='pseudo-random'`` uses philox4x64 with per-chunk keys (seed, c)
    as documented in the module docstring; exact zeros in a chunk are
    replaced by 2^-54 so downstream quantile transforms stay finite.
    ``kind='halton'`` uses element indices skip + i.
    """

    dimension: int
    kind: str = "pseudo-random"
    seed: int = 0
    skip: int = 1000

    def __post_init__(self):
        if self.kind not in ("pseudo-random", "halton"):
            raise ValueError(f"unknown point source kind {self.kind!r}")
        for name in ("dimension", "seed", "skip"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # stored as a Python int, so numpy integers give the same stream
            object.__setattr__(self, name, int(value))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.skip < 1:
            raise ValueError("need skip >= 1")

    @property
    def deterministic(self) -> bool:
        return self.kind == "halton"

    @property
    def generator_id(self) -> str:
        if self.kind == "halton":
            return f"halton(dim={self.dimension},skip={self.skip})"
        return f"philox4x64(seed={self.seed},key=(seed,chunk),chunk_size={CHUNK_SIZE})"

    def _fill(self, c: int, lo: int, out: np.ndarray) -> None:
        """Write rows lo .. lo + len(out) - 1 of chunk c into ``out``.

        No row before ``lo`` is generated.  Philox fills row-major, so the
        rows start at double lo * dimension of the chunk's stream: one
        counter skip of four doubles a step, then the rest drawn and
        dropped.  Halton reads the plan of the whole chunk, up to the smaller
        of its last index and the largest index the 2**53 bound admits, so
        every row has the doubles of a whole-chunk build; only a read past
        that index is refused.  Each thread keeps the plan it read last.
        """
        if self.kind == "halton":
            first = self.skip + c * CHUNK_SIZE
            if getattr(_THREAD_PLAN, "chunk", None) != (self.dimension, first):
                bound = (2**53 - 1) // int(_first_primes(self.dimension)[-1])
                _THREAD_PLAN.last = min(first + CHUNK_SIZE - 1, bound)
                _THREAD_PLAN.plan = _halton_plan(self.dimension, first, _THREAD_PLAN.last)
                _THREAD_PLAN.chunk = (self.dimension, first)
            if first + lo + len(out) - 1 > _THREAD_PLAN.last:
                _halton_plan(self.dimension, first, first + lo + len(out) - 1)  # refuses the read
            _halton_fill(_THREAD_PLAN.plan, first, first + lo, out)
            return
        bit_generator = np.random.Philox(key=np.array([self.seed, c], dtype=np.uint64))
        skipped, dropped = divmod(lo * self.dimension, 4)
        bit_generator.advance(skipped)
        gen = np.random.Generator(bit_generator)
        if dropped:
            gen.random(dropped)
        gen.random(out=out)
        out[out == 0.0] = _TINY_UNIFORM

    def uniform_block(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Points with absolute stream indices start .. start+count-1.

        They are written into ``out`` when it is given, a C-contiguous
        float64 (count, dimension) array, which is returned.
        """
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        shape = (count, self.dimension)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
        row = 0
        while row < count:
            c, lo = divmod(start + row, CHUNK_SIZE)
            rows = min(CHUNK_SIZE - lo, count - row)
            self._fill(c, lo, out[row : row + rows])
            row += rows
        return out


def _branch_probabilities(state: GaussianState) -> np.ndarray:
    w = np.abs(state.coefficients) ** 2
    return w / w.sum()


class _BlockWorkspace:
    """Arrays for one block of up to ``rows`` samples of a d-dimensional
    state: the block's uniforms and the sample coordinates Q and P.

    They are consecutive views of one float64 ``buffer`` of
    ``size(rows, d)`` entries (allocated when none is given).
    """

    @staticmethod
    def size(rows: int, d: int) -> int:
        return rows * (4 * d + 2)

    def __init__(self, rows: int, d: int, buffer: np.ndarray | None = None):
        if buffer is None:
            buffer = np.empty(self.size(rows, d))
        uniforms, Q, P = np.split(buffer, np.cumsum([rows * (2 * d + 2), rows * d]))
        self.uniforms = uniforms.reshape(rows, 2 * d + 2)
        self.Q, self.P = Q.reshape(rows, d), P.reshape(rows, d)


def _component_arrays(state: GaussianState, component: str, u: np.ndarray, work: _BlockWorkspace | None = None):
    """Draw one sample per row of the uniform block ``u``.

    Returns (Q, P, branch, plane) arrays; plane is -1 for the Husimi
    component and 0-based otherwise.  Every output row depends on its own
    uniform row only.  Q and P are views into ``work`` (a fresh workspace
    of ``u``'s rows when none is given), valid until its next use.  The
    normals are drawn straight into Q and P; once they are, the branch
    centers are taken into the start of ``work``'s uniforms (which may be
    ``u`` itself; a caller's ``u`` without a workspace stays unchanged) and
    added from there.  Each entry is rounded as center + sqrt(h) * normal
    (or center + polar offset), whatever the order of the in-place steps.
    """
    d, h = state.dim, state.h
    if u.shape[1] != 2 * d + 2:
        raise ValueError(f"point source dimension must be {2 * d + 2}, got {u.shape[1]}")
    count = u.shape[0]
    if work is None:
        work = _BlockWorkspace(count, d)
    probs = _branch_probabilities(state)
    cum = np.cumsum(probs)
    branch = np.minimum(
        np.searchsorted(cum, u[:, 0], side="right"), state.n_branches - 1
    )
    Q, P = work.Q[:count], work.P[:count]
    sqrt_h = np.sqrt(h)
    if component == "husimi":
        ndtri(u[:, 2 : d + 2], out=Q)
        ndtri(u[:, d + 2 :], out=P)
        Q *= sqrt_h
        P *= sqrt_h
        plane = np.full(count, -1, dtype=np.int64)
    elif component == "hermite-mixture":
        plane = np.minimum((u[:, 1] * d).astype(np.int64), d - 1)
        theta = 2.0 * np.pi * u[:, 2]
        radius = np.sqrt(2.0 * h * gamma2_inverse_cdf(u[:, 3]))
        # The normals of the other planes fill the first d - 1 columns, in
        # ascending plane order; those after the picked plane then move one
        # column right, and the polar pair takes the picked column.
        ndtri(u[:, 4 : d + 3], out=Q[:, : d - 1])
        ndtri(u[:, d + 3 :], out=P[:, : d - 1])
        Q[:, : d - 1] *= sqrt_h
        P[:, : d - 1] *= sqrt_h
        after = np.arange(1, d) > plane[:, None]
        np.copyto(Q[:, 1:], Q[:, :-1], where=after)
        np.copyto(P[:, 1:], P[:, :-1], where=after)
        rows = np.arange(count)
        Q[rows, plane] = radius * np.cos(theta)
        P[rows, plane] = radius * np.sin(theta)
    else:
        raise ValueError(f"unknown component {component!r}")
    centers = work.uniforms.reshape(-1)[: count * d].reshape(count, d)
    Q += np.take(state.centers_q, branch, axis=0, out=centers, mode="clip")
    P += np.take(state.centers_p, branch, axis=0, out=centers, mode="clip")
    return Q, P, branch, plane


@dataclass(frozen=True)
class EstimatorResult:
    """Expectation estimate with its component breakdown.

    The estimator's plan rows (see the module docstring) give every field:
    ``value`` sums weight * mean over them, ``(1 + d/2) mean_husimi +
    (-d/2) mean_hermite`` for mu and ``mean_husimi`` for husimi (no Hermite
    row: ``n_hermite`` 0, ``mean_hermite`` None).  ``stderr`` is the root of
    the sum of weight^2 * variance / count for pseudo-random sources; Halton
    sources are deterministic and report stderr 0 with ``deterministic`` set.
    """

    value: float
    stderr: float
    n_husimi: int
    n_hermite: int
    mean_husimi: float
    mean_hermite: Optional[float]
    method: str
    deterministic: bool
    generator: str


def _chunk_ranges(start: int, stop: int):
    """Split [start, stop) on the absolute CHUNK_SIZE grid."""
    out = []
    s = start
    while s < stop:
        e = min(((s // CHUNK_SIZE) + 1) * CHUNK_SIZE, stop)
        out.append((s, e))
        s = e
    return out


def _pairwise_reduce(parts: list[np.ndarray]) -> np.ndarray:
    """Deterministic pairwise-tree sum of per-chunk accumulators."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) // 2 * 2 :]
    return parts[0]


def _importance_weights(state: GaussianState, component: str, Q: np.ndarray, P: np.ndarray, norm: float) -> np.ndarray:
    """Importance weights exact density / (proposal pdf * norm) of a block
    of ``component`` samples, from one overlap table O_k = <g_w, g_{z_k}>.

    With the plane offsets zeta_jk of :mod:`phasespec.densities` and the
    branch probabilities p_k, they are |sum_k c_k O_k|^2 / sum_k p_k |O_k|^2
    (Husimi) and sum_j |sum_k c_k zeta_jk O_k|^2 / sum_k p_k sum_j |zeta_jk O_k|^2
    (Hermite mixture).  Each point's exponents are shifted by their largest
    real part, so a point far from every branch gets no 0/0."""
    E = _overlap_exponents(state, Q, P)
    modulus = np.exp(E.real - E.real.max(axis=0))
    # the exp of the real and imaginary parts apart is cheaper than a complex exp
    O = np.empty_like(E)
    np.multiply(modulus, np.cos(E.imag), out=O.real)
    np.multiply(modulus, np.sin(E.imag), out=O.imag)
    power = modulus * modulus
    if component == "husimi":
        num = np.abs(state.coefficients @ O) ** 2
    else:
        num = _plane_power_sum(state, Q, P, O)
        # sum_j |zeta_jk|^2 = |w - z_k|^2 / (2h) = -2 Re log O_k
        power *= -2.0 * E.real
    return num / ((_branch_probabilities(state) @ power) * norm)


def _observable_values(observables: Sequence[Observable], Q, P) -> list[np.ndarray]:
    """The values of each observable on one block of samples.

    Every distinct observable object is evaluated once, and a sum
    observable is its parts' values added left to right as its ``fn`` adds
    them, so it has the doubles of its own evaluation and no part is
    evaluated twice.
    """
    values: dict[int, np.ndarray] = {}

    def evaluated(obs: Observable) -> np.ndarray:
        if id(obs) not in values:
            values[id(obs)] = obs.evaluate(Q, P)
        return values[id(obs)]

    for obs in observables:
        if obs.parts and id(obs) not in values:
            total = evaluated(obs.parts[0])
            for part in obs.parts[1:]:
                total = total + evaluated(part)
            values[id(obs)] = total
    return [evaluated(obs) for obs in observables]


def estimate_expectation(
    state: GaussianState,
    A: Observable | Sequence[Observable],
    method: str = "mu",
    n: int = 100_000,
    source: PointSource | None = None,
    split: float = 0.5,
    policy: CrossTermPolicy | None = None,
    workers: int = 1,
) -> EstimatorResult | list[EstimatorResult]:
    """Estimate the normalized expectation of A in ``state`` by sampling.

    ``method='mu'`` runs the two-stream signed estimator with ``round(n *
    split)`` Husimi points and the rest Hermite points; ``method='husimi'``
    averages A over n Husimi samples only (first-order accurate).

    ``A`` is one observable, which returns one result, or a non-empty
    sequence of observables, which returns a list of results in input
    order.  Every observable of a sequence is evaluated on the same points,
    so the stream (and, when weighted, the importance weights) is built
    once per chunk, and each result equals that of a single call.  A
    sum observable is added up from the values of its ``parts``, each
    evaluated once per block however many observables list it.

    ``policy.weights_needed(state)`` picks the estimator.  If it is false
    (under the default neglect policy, for branches whose pair dampings are
    all below ``NEGLIGIBLE_DAMPING``) the branch mixture is sampled and
    normalized by the branch weight total, so A = 1 yields exactly 1.
    Otherwise, at any d, every sample is importance weighted by
    exact-density / proposal and the estimate is normalized by the exact
    state norm, which keeps interfering superpositions unbiased.

    Results are bit-identical across ``workers`` settings (>= 1): chunking
    and the reduction tree depend only on (n, split).
    """
    single = isinstance(A, Observable)
    observables = [A] if single else list(A)
    if not observables:
        raise ValueError("need at least one observable")
    if method not in ("mu", "husimi"):
        raise ValueError("method must be 'mu' or 'husimi'")
    if n < 2:
        raise ValueError("n must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if policy is None:
        policy = CrossTermPolicy(mode="neglect")
    if source is None:
        source = PointSource(dimension=2 * state.dim + 2)
    d = state.dim
    if source.dimension != 2 * d + 2:
        raise ValueError(f"point source dimension must be {2 * d + 2}")

    weighted = policy.weights_needed(state)
    norm = state_norm2(state) if weighted else None

    # tasks, sums, value, stderr and result fields all read the plan rows
    if method == "mu":
        if not 0.0 < split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")
        n_h = min(max(int(round(n * split)), 1), n - 1)
        plan = [("husimi", 1.0 + d / 2.0, 0, n_h), ("hermite-mixture", -d / 2.0, n_h, n)]
    else:
        plan = [("husimi", 1.0, 0, n)]

    tasks = [(comp, s, e) for comp, _, lo, hi in plan for s, e in _chunk_ranges(lo, hi)]
    threads = min(workers, len(tasks))
    # One block workspace per worker thread, kept for the whole call.  All
    # of them share one allocation: freeing it raises glibc's trim
    # threshold to twice its size, so the next call of the same size
    # reuses its pages instead of faulting them in again.
    workspaces = queue.SimpleQueue()
    for buffer in np.empty((threads, _BlockWorkspace.size(_BLOCK_ROWS, d))):
        workspaces.put(_BlockWorkspace(_BLOCK_ROWS, d, buffer))

    def run_chunk(component: str, s: int, e: int) -> np.ndarray:
        """(count, sum, sum of squares) of every observable on one chunk."""
        work = workspaces.get()
        try:
            vals = np.empty((len(observables), e - s))
            for lo in range(0, e - s, _BLOCK_ROWS):
                rows = min(_BLOCK_ROWS, e - s - lo)
                u = source.uniform_block(s + lo, rows, out=work.uniforms[:rows])
                Q, P, _, _ = _component_arrays(state, component, u, work)
                weights = _importance_weights(state, component, Q, P, norm) if weighted else None
                for row, v in zip(vals, _observable_values(observables, Q, P)):
                    row[lo : lo + rows] = v if weights is None else v * weights
        finally:
            workspaces.put(work)
        return np.array([(e - s, np.sum(row), np.sum(row * row)) for row in vals])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: run_chunk(*t), tasks))
    else:
        results = [run_chunk(*t) for t in tasks]

    totals = [_pairwise_reduce([r for t, r in zip(tasks, results) if t[0] == comp]) for comp, *_ in plan]
    out = []
    for i, obs in enumerate(observables):
        counts, means, value, variance = {}, {}, None, None
        for (comp, weight, _, _), acc in zip(plan, totals):
            count = counts[comp] = int(acc[i, 0])
            mean = means[comp] = float(acc[i, 1] / count)
            var = max(acc[i, 2] / count - mean * mean, 0.0) * count / max(count - 1, 1)
            # Each sum starts from the first row, so w_h m_h + (-w_s) m_s
            # keeps every double of w_h m_h - w_s m_s, signed zeros included.
            term, spread = weight * mean, weight**2 * var / count
            value, variance = (term, spread) if value is None else (value + term, variance + spread)
        if not np.isfinite(value):
            raise NonFiniteResultError(
                f"estimate of {obs.label!r} is not finite (value={value!r})"
            )
        out.append(EstimatorResult(
            value=value,
            stderr=0.0 if source.deterministic else float(np.sqrt(variance)),
            n_husimi=counts["husimi"],
            n_hermite=counts.get("hermite-mixture", 0),
            mean_husimi=means["husimi"],
            mean_hermite=means.get("hermite-mixture"),
            method=method,
            deterministic=source.deterministic,
            generator=source.generator_id,
        ))
    return out[0] if single else out
