"""Deterministic point sources and the signed-mixture expectation estimator.

The corrected density splits into two non-negative components,

    mu = (1 + d/2) H - (d/2) Sbar,      Sbar = (1/d) sum_j S_j,

both exactly sampleable for branch mixtures: H draws the branch center plus
sqrt(h) times 2d standard normals; Sbar additionally replaces one uniformly
chosen plane by a polar draw whose squared radius is 2h times a Gamma(2, 1)
variate.  The estimator averages the observable over each component stream
and combines the means with the signed weights above.

Reproducibility contract
------------------------
A :class:`PointSource` emits uniform points in (0, 1)^dimension addressed by
absolute index.  Pseudo-random streams use the counter-based philox4x64
generator (period 2^256): point indices are grouped into fixed chunks of
``CHUNK_SIZE`` and chunk c is generated with key (seed, c), so any
sub-range of the stream is a pure function of (seed, index) alone.  Halton
streams use element indices skip + leap * i with one prime base per
coordinate.  The estimator consumes indices [0, n_husimi) for the Husimi
component and [n_husimi, n) for the Hermite component, accumulates per-chunk
partial sums, and reduces them over a fixed pairwise tree, so results are
bit-identical for any worker count.

Each chunk's uniforms are read once; the samples are then assembled and the
observables (and, under the exact policy, the importance weights) evaluated
``_BLOCK_ROWS`` rows at a time, so the temporaries stay in cache; a block's
weights come from one overlap table (``_importance_weights``).  Every
sample depends on its own uniform row only, and the chunk sums are taken
over the whole chunk after the last block, so the row blocking leaves the
sums unchanged.

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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .core import GaussianState, _overlap_exponents, state_norm2
from .densities import CrossTermPolicy, _plane_power_sum
from .exceptions import NonFiniteResultError, NonNegligibleCrossTermsError
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
# Rows per cache block of the estimator's pass over a chunk (divides
# CHUNK_SIZE); chosen by timing hh-halton at 1024, 2048 and 4096.
_BLOCK_ROWS = 2048
# Below _GAMMA2_SERIES_U (root x < 0.36) gamma2_inverse_cdf solves on the
# power series of the Gamma(2) CDF, whose first 14 terms reach double
# precision there.
_GAMMA2_SERIES_U = 0.05
_GAMMA2_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(14))
# Largest digit-reversal table per Halton base (b^k entries), and the rows
# halton_points converts per pass over the bases.
_DIGIT_TABLE_SIZE = 4096
_HALTON_ROWS = 4096


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


def _digit_blocks(base: int, ndigits: int) -> list[tuple[int, np.ndarray | None]]:
    """Split ndigits base-b digits into blocks, lowest digits first.

    Each block is (b^m, rev_m) with rev_m[j] the m-digit reversal of
    j < b^m; a one-digit block has no table, as a digit is its own
    reversal.  Every block but the last has the largest m with
    b^m <= _DIGIT_TABLE_SIZE (m >= 1); the last holds the remaining digits.
    """
    full = 1
    while base ** (full + 1) <= _DIGIT_TABLE_SIZE:
        full += 1
    n_full, last = divmod(ndigits, full)
    if last == 0:
        n_full, last = n_full - 1, full
    tables = [None]
    rev = np.arange(base, dtype=np.int64)
    for m in range(2, full + 1):
        # j = a + b j' with low digit a: rev_m(j) = a b^(m-1) + rev_(m-1)(j')
        rev = (rev[:, None] + np.arange(base, dtype=np.int64) * base ** (m - 1)).ravel()
        tables.append(rev)
    return [(base**full, tables[full - 1])] * n_full + [(base**last, tables[last - 1])]


def _reversed_numerators(idx: np.ndarray, blocks: list[tuple[int, np.ndarray | None]]) -> np.ndarray:
    """The digit-reversed integers rev_K(idx) over the K digits of ``blocks``.

    Each block but the last peels its digits off with one scalar floor
    division (several times faster than ``%`` or ``np.divmod`` on int64);
    the last block's remainder is already below its size.
    """
    num = 0
    rem = idx
    for size, rev in blocks[:-1]:
        quot = rem // size
        digits = rem - quot * size
        num = num * size + (digits if rev is None else rev[digits])
        rem = quot
    size, rev = blocks[-1]
    return num * size + (rem if rev is None else rev[rem])


def _outer_sum_tables(
    base: int, ndigits: int, blocks: list[tuple[int, np.ndarray | None]], first_index: int, last_index: int
):
    """(B, low, high) with rev_K(a B + r) = high[a - first_index // B] + low[r].

    B = b^k is the size of the lowest digit block of ``blocks``; the k low
    digits of an index become the k high digits of its reversal, so
    low[r] = rev_k(r) b^(K-k) for r < B, and high holds rev_(K-k)(a) for the
    quotients a of first_index .. last_index.  Both are exact int64 parts
    of the same numerator the digit blocks build.
    """
    size, rev = blocks[0]
    low = (np.arange(size, dtype=np.int64) if rev is None else rev) * (base**ndigits // size)
    quotients = np.arange(first_index // size, last_index // size + 1, dtype=np.int64)
    high = _reversed_numerators(quotients, blocks[1:]) if len(blocks) > 1 else np.zeros_like(quotients)
    return size, low, high


def halton_points(n: int, dim: int, skip: int, leap: int = 1) -> np.ndarray:
    """Elements skip, skip+leap, ..., of the Halton sequence in (0, 1)^dim.

    Coordinate i uses the van der Corput radical inverse in the i-th prime
    base.  Every base uses the digit count K of the last index, and each
    value is the exact integer numerator rev_K(index), the index's K base-b
    digits reversed, divided once by base^K.  The digits are reversed a
    block of up to k digits at a time (b^k <= _DIGIT_TABLE_SIZE) through
    digit-reversal tables built once per call, lowest block first:
    num <- num * b^k + rev_k(rem mod b^k).  This builds the same exact
    integer as a digit-by-digit loop, so the values do not depend on the
    table size.  While index * base < 2**53 both the numerator and base^K
    are exact doubles, so every value is the correctly rounded double of
    the exact rational; beyond that (up to the int64 bound checked below)
    base^K is rounded and a value may be off by an ulp.  Element index 0 is
    the degenerate all-zero point, so callers should use skip >= 1.

    With leap 1 the indices are consecutive, so the numerators of a row
    block come from one outer sum high[a, None] + low over the quotients a
    and remainders r of index = a b^k + r (see ``_outer_sum_tables``): the
    same exact integers as the digit blocks, hence the same doubles.  Other
    leaps peel each index's digit blocks.

    Parameters
    ----------
    n : int
        Number of points.
    dim : int
        Number of coordinates.
    skip : int
        Index of the first element (>= 1 recommended).
    leap : int
        Stride between consecutive element indices.

    Indices are exact int64 integers: the last index times the largest
    prime base in use must stay below 2**63, or a ValueError is raised.
    The result is a C-contiguous (n, dim) float64 array, filled
    ``_HALTON_ROWS`` rows at a time through a small (dim, rows) buffer.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < 0 or skip < 0 or leap < 1:
        raise ValueError("need n >= 0, skip >= 0, leap >= 1")
    primes = _first_primes(dim)
    # The digit-reversed numerator stays below index * base, which must fit
    # in int64.
    hi = int(skip) + int(leap) * max(int(n) - 1, 0)
    if hi * int(primes[-1]) >= 2**63:
        raise ValueError(
            f"Halton index bound exceeded: element index {hi} times prime base "
            f"{int(primes[-1])} must stay below 2**63"
        )
    plans = []
    for b in (int(p) for p in primes):
        ndigits = _digit_count(hi, b)
        blocks = _digit_blocks(b, ndigits)
        tables = _outer_sum_tables(b, ndigits, blocks, skip, hi) if leap == 1 else None
        plans.append((blocks, tables, float(b**ndigits)))
    indices = skip + leap * np.arange(n, dtype=np.int64)
    out = np.empty((n, dim))
    # Filling whole rows of a (dim, rows) buffer and copying its transpose
    # keeps the result C-ordered, so row sums downstream run in the same
    # order as for any other C-ordered block.
    buf = np.empty((dim, min(n, _HALTON_ROWS)))
    for lo in range(0, n, _HALTON_ROWS):
        idx = indices[lo : lo + _HALTON_ROWS]
        block = buf[:, : idx.size]
        for row, (blocks, tables, scale) in zip(block, plans):
            if tables is None:
                num = _reversed_numerators(idx, blocks)
            else:
                size, low, high = tables
                a, r = divmod(skip + lo, size)
                a -= skip // size
                touched = (r + idx.size - 1) // size + 1
                num = (high[a : a + touched, None] + low).ravel()[r : r + idx.size]
            np.divide(num, scale, out=row)
        out[lo : lo + idx.size] = block.T
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
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
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
    ``kind='halton'`` uses element indices skip + leap * i.
    """

    dimension: int
    kind: str = "pseudo-random"
    seed: int = 0
    skip: int = 1000
    leap: int = 1

    def __post_init__(self):
        if self.kind not in ("pseudo-random", "halton"):
            raise ValueError(f"unknown point source kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.skip < 1 or self.leap < 1:
            raise ValueError("need skip >= 1 and leap >= 1")

    @property
    def deterministic(self) -> bool:
        return self.kind == "halton"

    @property
    def generator_id(self) -> str:
        if self.kind == "halton":
            return f"halton(dim={self.dimension},skip={self.skip},leap={self.leap})"
        return f"philox4x64(seed={self.seed},key=(seed,chunk),chunk_size={CHUNK_SIZE})"

    def _chunk(self, c: int, rows: int) -> np.ndarray:
        """At least the first ``rows`` rows of chunk c.

        Philox fills row-major, so generating only ``rows`` rows gives the
        same doubles as the head of the full chunk.  Halton always builds the
        whole chunk: its digit count depends on the last index of a call.
        """
        if self.kind == "halton":
            return halton_points(
                CHUNK_SIZE,
                self.dimension,
                skip=self.skip + self.leap * c * CHUNK_SIZE,
                leap=self.leap,
            )
        key = np.array([self.seed, c], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        block = gen.random((rows, self.dimension))
        block[block == 0.0] = _TINY_UNIFORM
        return block

    def uniform_block(self, start: int, count: int) -> np.ndarray:
        """Points with absolute stream indices start .. start+count-1."""
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        parts = []
        c = start // CHUNK_SIZE
        while c * CHUNK_SIZE < start + count:
            lo = max(start - c * CHUNK_SIZE, 0)
            hi = min(start + count - c * CHUNK_SIZE, CHUNK_SIZE)
            parts.append(self._chunk(c, hi)[lo:hi])
            c += 1
        if not parts:
            return np.empty((0, self.dimension))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def _branch_probabilities(state: GaussianState) -> np.ndarray:
    w = np.abs(state.coefficients) ** 2
    return w / w.sum()


def _require_negligible(state: GaussianState, policy: CrossTermPolicy) -> None:
    worst = policy.max_offdiagonal_damping(state)
    if worst >= policy.threshold:
        raise NonNegligibleCrossTermsError(
            f"cross terms non-negligible: max pair damping {worst:.3e} >= "
            f"threshold {policy.threshold:.3e}; branch-mixture sampling would "
            "be biased.  Use CrossTermPolicy(mode='exact') for importance-"
            "weighted estimation or separate the branches."
        )


def _component_arrays(state: GaussianState, component: str, u: np.ndarray):
    """Draw one sample per row of the uniform block ``u``.

    Returns (Q, P, branch, plane) arrays; plane is -1 for the Husimi
    component and 0-based otherwise.  Every output row depends on its own
    uniform row only.
    """
    d, h = state.dim, state.h
    if u.shape[1] != 2 * d + 2:
        raise ValueError(f"point source dimension must be {2 * d + 2}, got {u.shape[1]}")
    count = u.shape[0]
    probs = _branch_probabilities(state)
    cum = np.cumsum(probs)
    branch = np.minimum(
        np.searchsorted(cum, u[:, 0], side="right"), state.n_branches - 1
    )
    Qc = state.centers_q[branch]
    Pc = state.centers_p[branch]
    sqrt_h = np.sqrt(h)
    if component == "husimi":
        g = ndtri(u[:, 2 : 2 * d + 2])
        Q = Qc + sqrt_h * g[:, :d]
        P = Pc + sqrt_h * g[:, d:]
        plane = np.full(count, -1, dtype=np.int64)
        return Q, P, branch, plane
    if component != "hermite-mixture":
        raise ValueError(f"unknown component {component!r}")
    plane = np.minimum((u[:, 1] * d).astype(np.int64), d - 1)
    theta = 2.0 * np.pi * u[:, 2]
    radius = np.sqrt(2.0 * h * gamma2_inverse_cdf(u[:, 3]))
    qoff = np.empty((count, d))
    poff = np.empty((count, d))
    if d > 1:
        g = ndtri(u[:, 4 : 2 * d + 2])
        cols = np.arange(d)[None, :]
        others = cols != plane[:, None]
        qoff[others] = (sqrt_h * g[:, : d - 1]).ravel()
        poff[others] = (sqrt_h * g[:, d - 1 :]).ravel()
    rows = np.arange(count)
    qoff[rows, plane] = radius * np.cos(theta)
    poff[rows, plane] = radius * np.sin(theta)
    return Qc + qoff, Pc + poff, branch, plane


@dataclass(frozen=True)
class EstimatorResult:
    """Expectation estimate with its component breakdown.

    ``value = (1 + d/2) mean_husimi - (d/2) mean_hermite`` for the mu method
    and ``value = mean_husimi`` for the husimi method.  ``stderr`` combines
    the per-component sample variances for pseudo-random sources; Halton
    sources are deterministic and report stderr 0 with ``deterministic``
    set.
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
    items = list(parts)
    if not items:
        return np.zeros(3)
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _importance_weights(state: GaussianState, component: str, Q: np.ndarray, P: np.ndarray, norm: float) -> np.ndarray:
    """Exact-policy weights exact density / (proposal pdf * norm) of a block
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
    so the stream (and, under the exact policy, the importance weights) is
    built once per chunk, and each result equals that of a single call.  A
    sum observable is added up from the values of its ``parts``, each
    evaluated once per block however many observables list it.

    Under the default neglect policy the estimate is normalized by the
    branch weight total, which equals the state norm up to the policy's
    guaranteed-negligible cross terms, so A = 1 yields exactly 1.  Under
    ``CrossTermPolicy(mode='exact')`` (at any d) every sample is importance
    weighted by exact-density / proposal and the estimate is normalized by
    the exact state norm, which keeps small-separation superpositions
    unbiased.

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

    exact_mode = policy.mode == "exact"
    if exact_mode:
        norm = state_norm2(state)
    else:
        _require_negligible(state, policy)

    if method == "mu":
        if not 0.0 < split < 1.0:
            raise ValueError("split must lie strictly between 0 and 1")
        n_h = min(max(int(round(n * split)), 1), n - 1)
        plan = [("husimi", 0, n_h), ("hermite-mixture", n_h, n)]
    else:
        n_h = n
        plan = [("husimi", 0, n)]

    def run_chunk(component: str, s: int, e: int) -> np.ndarray:
        """(count, sum, sum of squares) of every observable on one chunk."""
        u = source.uniform_block(s, e - s)
        vals = np.empty((len(observables), e - s))
        for lo in range(0, e - s, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            Q, P, _, _ = _component_arrays(state, component, u[block])
            weights = _importance_weights(state, component, Q, P, norm) if exact_mode else None
            for row, v in zip(vals, _observable_values(observables, Q, P)):
                row[block] = v if weights is None else v * weights
        return np.array([(e - s, np.sum(row), np.sum(row * row)) for row in vals])

    tasks = [(comp, s, e) for comp, lo, hi in plan for s, e in _chunk_ranges(lo, hi)]
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_chunk(*t), tasks))
    else:
        results = [run_chunk(*t) for t in tasks]

    stats: dict[str, np.ndarray] = {}
    for comp, _, _ in plan:
        parts = [r for (c, _, _), r in zip(tasks, results) if c == comp]
        stats[comp] = _pairwise_reduce(parts)

    def moments(acc: np.ndarray) -> tuple[int, float, float]:
        count = int(acc[0])
        mean = acc[1] / count
        var = max(acc[2] / count - mean * mean, 0.0) * count / max(count - 1, 1)
        return count, mean, var

    out = []
    for i, obs in enumerate(observables):
        cnt_h, mean_h, var_h = moments(stats["husimi"][i])
        if method == "mu":
            cnt_s, mean_s, var_s = moments(stats["hermite-mixture"][i])
            w_h, w_s = 1.0 + d / 2.0, d / 2.0
            value = w_h * mean_h - w_s * mean_s
            variance = w_h**2 * var_h / cnt_h + w_s**2 * var_s / cnt_s
            mean_hermite: Optional[float] = mean_s
            n_hermite = cnt_s
        else:
            value = mean_h
            variance = var_h / cnt_h
            mean_hermite = None
            n_hermite = 0
        stderr = 0.0 if source.deterministic else float(np.sqrt(variance))
        if not np.isfinite(value):
            raise NonFiniteResultError(
                f"estimate of {obs.label!r} is not finite (value={value!r})"
            )
        out.append(EstimatorResult(
            value=float(value),
            stderr=stderr,
            n_husimi=cnt_h,
            n_hermite=n_hermite,
            mean_husimi=float(mean_h),
            mean_hermite=None if mean_hermite is None else float(mean_hermite),
            method=method,
            deterministic=source.deterministic,
            generator=source.generator_id,
        ))
    return out[0] if single else out
