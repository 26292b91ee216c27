import gc
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy import stats
from scipy.special import gammainc

from phasespec import (
    CrossTermPolicy,
    GaussianState,
    PhasePoint,
    PointSource,
    estimate_expectation,
    gamma2_inverse_cdf,
    halton_points,
    state_norm2,
    weyl_expectation_gaussian,
)
from phasespec.core import _BLOCK_ROWS
from phasespec.observables import (
    HenonHeilesSpec,
    Observable,
    henon_heiles_energy,
    henon_heiles_total,
    observable_from_polynomial_records,
    torsional_potential,
)
from phasespec.quadrature import tensor_grid_expectation
from phasespec.sampling import CHUNK_SIZE, _component_arrays, _first_primes, _importance_weights, ndtri

from _oracles import halton_digit_loop, proposal_ratio_weights, whole_chunk_estimate


def exact_radical_inverse(index, base):
    """Exact rational radical inverse, rounded once to float."""
    value = Fraction(0)
    scale = Fraction(1, base)
    while index > 0:
        value += (index % base) * scale
        index //= base
        scale /= base
    return float(value)


class TestHalton:
    def test_van_der_corput_prefix(self):
        pts = halton_points(3, 1, skip=1)
        assert pts[:, 0].tolist() == [0.5, 0.25, 0.75]

    def test_two_dim_prefix(self):
        pts = halton_points(2, 2, skip=1)
        assert pts[0].tolist() == [0.5, exact_radical_inverse(1, 3)]
        assert pts[1].tolist() == [0.25, exact_radical_inverse(2, 3)]

    def test_element_index_six(self):
        pts = halton_points(1, 1, skip=6)
        assert pts[0, 0] == 3.0 / 8.0

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(88)
        indices = np.concatenate([rng.integers(1, 10**7, size=60), [1, 2, 10**8]])
        for dim_i, base in enumerate(_first_primes(12)):
            for idx in indices:
                got = halton_points(1, dim_i + 1, skip=int(idx))[0, dim_i]
                assert got == exact_radical_inverse(int(idx), int(base))

    def test_values_in_open_interval(self):
        pts = halton_points(500, 6, skip=1)
        assert np.all((pts > 0.0) & (pts < 1.0))

    def test_leap_refused(self):
        # Halton indices are always skip + i: the stride option is removed
        with pytest.raises(TypeError):
            halton_points(3, 1, skip=1, leap=4)
        with pytest.raises(TypeError):
            PointSource(dimension=1, kind="halton", leap=4)


class TestHaltonDigitBlocks:
    """The table-driven radical inverse gives the one-digit loop's doubles bit
    for bit, and the exact rationals while index * base < 2**53."""

    @pytest.mark.parametrize("dim", [6, 18, 66, 258])
    def test_whole_chunks_match_digit_loop(self, dim):
        source = PointSource(dimension=dim, kind="halton")
        for c in (0, 3, 30):
            got = source.uniform_block(c * CHUNK_SIZE, CHUNK_SIZE)
            want = halton_digit_loop(CHUNK_SIZE, dim, skip=source.skip + c * CHUNK_SIZE)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        dim=strategies.integers(1, 70),
        n=strategies.integers(1, 10**4),
        data=strategies.data(),
    )
    def test_matches_digit_loop_and_exact_rationals(self, dim, n, data):
        primes = [int(b) for b in _first_primes(dim)]
        # keep every index * base below 2**53, where the values are exact
        skip = data.draw(strategies.integers(0, (2**53 - 1) // primes[-1] - (n - 1)))
        pts = halton_points(n, dim, skip=skip)
        want = halton_digit_loop(n, dim, skip)
        assert np.array_equal(pts.view(np.int64), want.view(np.int64))
        # first and last rows, both sides of each row-block edge, and a draw
        rows = {0, n - 1, data.draw(strategies.integers(0, n - 1))}
        rows |= {r for edge in range(4096, n, 4096) for r in (edge - 1, edge)}
        for r in sorted(rows):
            index = skip + r
            assert pts[r].tolist() == [exact_radical_inverse(index, b) for b in primes]

    def test_digit_count_boundaries(self):
        # b^k - 1 has k digits and b^k, b^k + 1 have k + 1, for every k that
        # keeps index * base below 2**53: this crosses every table-block split
        for dim_i, base in enumerate(int(b) for b in _first_primes(70)):
            k = 1
            while (base**k + 1) * base < 2**53:
                indices = [base**k - 1, base**k, base**k + 1]
                exact = [exact_radical_inverse(i, base) for i in indices]
                # alone, b^k - 1 takes k digits; with b^k + 1 last, k + 1
                assert halton_points(1, dim_i + 1, skip=base**k - 1)[0, dim_i] == exact[0]
                pts = halton_points(3, dim_i + 1, skip=base**k - 1)
                assert pts[:, dim_i].tolist() == exact
                k += 1

    @pytest.mark.parametrize("base", [2, 3, 67, 313])
    def test_outer_sums_at_digit_edges(self, base):
        # numerators are high[a] + low[r] for index a b^k + r;
        # skips at b^k - 1 and b^k start on both sides of a digit-count
        # edge, and two 4096-row blocks cross low-block edges (b^k <= 4096)
        primes = [int(b) for b in _first_primes(70)]
        dim = primes.index(base) + 1
        n = 2 * 4096 + 5
        k = 0
        while (base**k + n) * base < 2**53:
            for skip in (base**k - 1, base**k):
                pts = halton_points(n, dim, skip=skip)
                want = halton_digit_loop(n, dim, skip)
                assert np.array_equal(pts.view(np.int64), want.view(np.int64))
            k += 1

    def test_low_table_reverses_the_low_digits(self):
        # low[r] = rev_k(r) b^(K-k): the k base-b digits of r reversed and
        # raised to the top of a K-digit numerator, where b^k is the largest
        # power of b within 4096 (at least b) and k <= K; every K with
        # b^K < 2**53, the plan's bound
        from phasespec import sampling

        reversed_digits = {}
        for base in (2, 3, 13, 67, 313, 1627):
            ndigits = 1
            while base**ndigits < 2**53:
                low = sampling._low_table(base, ndigits)
                k = round(math.log(low.shape[0], base))
                assert base**k == low.shape[0] and 1 <= k <= ndigits
                assert k == 1 or base**k <= 4096
                assert k == ndigits or base ** (k + 1) > 4096
                if k not in reversed_digits:
                    rev = []
                    for r in range(base**k):
                        value = 0
                        for _ in range(k):
                            r, digit = divmod(r, base)
                            value = value * base + digit
                        rev.append(value)
                    reversed_digits[k] = rev
                assert low.tolist() == [v * base ** (ndigits - k) for v in reversed_digits[k]]
                assert not low.flags.writeable
                assert sampling._low_table(base, ndigits) is low
                ndigits += 1
            reversed_digits.clear()

    def test_negative_indices_refused(self):
        with pytest.raises(ValueError, match="skip >= 0"):
            halton_points(2, 1, skip=-1)

    def test_c_contiguous_float64(self):
        # row sums downstream depend on the memory order of the block
        pts = halton_points(10_000, 18, skip=1000)
        assert pts.dtype == np.float64 and pts.flags.c_contiguous
        source = PointSource(dimension=18, kind="halton")
        for start, count in ((0, CHUNK_SIZE), (5, 100), (CHUNK_SIZE - 50, 100)):
            block = source.uniform_block(start, count)
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert block.shape == (count, 18)

    def test_chunk_plans_share_read_only_digit_tables(self):
        from phasespec import sampling

        first = [1000 + c * CHUNK_SIZE for c in (3, 4)]
        plans = [sampling._halton_plan(66, f, f + CHUNK_SIZE - 1) for f in first]
        shared = 0
        for (_, low_a, high_a, scale_a), (_, low_b, high_b, scale_b), base in zip(*plans, _first_primes(66)):
            assert high_a is not high_b
            if scale_a != scale_b:
                continue
            shared += 1
            ndigits = sampling._digit_count(first[1] + CHUNK_SIZE - 1, int(base))
            assert low_a is low_b is sampling._low_table(int(base), ndigits)
            assert not low_a.flags.writeable
            with pytest.raises(ValueError):
                low_a[0] = 1
        # every base but a few crossing a digit-count edge
        assert shared >= 60


class TestHaltonPlanPerThread:
    def test_one_plan_per_chunk_task_at_any_worker_count(self, monkeypatch):
        # more chunk tasks than workers, and more than any small plan cache
        from phasespec import sampling

        build = sampling._halton_plan
        calls = []

        def counting(*key):
            calls.append(key)
            return build(*key)

        monkeypatch.setattr(sampling, "_halton_plan", counting)
        spec = HenonHeilesSpec(d=2)
        state, total = spec.benchmark_state(), henon_heiles_total(spec)
        n = 8 * CHUNK_SIZE + 1000
        n_h = n // 2
        tasks = len(sampling._chunk_ranges(0, n_h)) + len(sampling._chunk_ranges(n_h, n))
        source = PointSource(dimension=6, kind="halton", skip=77)
        bits = []
        # frequent thread switches, so the workers interleave inside the
        # shared digit-table caches and their own plans
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 8):
                calls.clear()
                got = estimate_expectation(state, total, n=n, source=source, workers=workers)
                assert 0 < len(calls) <= tasks
                bits.append(np.array([got.value, got.mean_husimi, got.mean_hermite]).view(np.int64))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(b, bits[0]) for b in bits[1:])


class TestInverseNormalCdf:
    def test_median(self):
        assert ndtri(0.5) == 0.0

    def test_bisection_oracle(self):
        # bisect Phi(x) = u with Phi from the error function
        def phi(x):
            return 0.5 * math.erfc(-x / math.sqrt(2.0))

        for u in (0.975, 0.1, 0.6, 0.999):
            lo, hi = -10.0, 10.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if phi(mid) < u:
                    lo = mid
                else:
                    hi = mid
            assert ndtri(u) == pytest.approx(0.5 * (lo + hi), abs=1e-6)
        assert ndtri(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10_000)
        x = ndtri(u)
        back = 0.5 * np.array([math.erfc(-xi / math.sqrt(2.0)) for xi in x])
        assert np.max(np.abs(back - u)) < 1e-9

    def test_extreme_tail_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 40
        for u in (1e-15, 1e-12, 1e-6, 0.3, 1 - 1e-6, 1 - 1e-12, 1 - 1e-15):
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1))
            assert abs(ndtri(u) - exact) < 1e-9


class TestGamma2InverseCdf:
    def test_closed_form_checkpoint(self):
        u = 1.0 - 2.0 / np.e
        assert gamma2_inverse_cdf(u) == pytest.approx(1.0, rel=1e-10)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10_000)
        x = gamma2_inverse_cdf(u)
        back = gammainc(2.0, x)
        assert np.max(np.abs(back - u) / u) < 1e-10

    def test_monotone_and_extremes(self):
        u = np.array([1e-14, 1e-8, 0.2642411, 0.9, 1 - 1e-12])
        x = gamma2_inverse_cdf(u)
        assert np.all(np.diff(x) > 0)
        assert np.allclose(gammainc(2.0, x), u, rtol=1e-9, atol=1e-16)

    def test_scipy_cross_check(self):
        u = np.linspace(0.01, 0.99, 23)
        ours = gamma2_inverse_cdf(u)
        ref = stats.gamma(a=2.0).ppf(u)
        assert np.allclose(ours, ref, rtol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma2_inverse_cdf(0.0)
        with pytest.raises(ValueError):
            gamma2_inverse_cdf(1.0)

    @pytest.mark.parametrize("u", [np.nan, np.array([0.5, np.nan, 0.25]), np.array([[np.nan]])])
    def test_nan_refused(self, u):
        with pytest.raises(ValueError, match="0 < u < 1"):
            gamma2_inverse_cdf(u)


class TestGamma2Tails:
    """Both tails against 40-digit mpmath values."""

    def test_inverse_cdf_tails(self):
        import mpmath

        mpmath.mp.dps = 40
        for u in (2.0**-54, 1e-14, 1 - 1e-12, 1 - 2.0**-53):
            # bisection for F(x) = 1 - (1 + x) e^{-x} = u on [0, 60]
            lo, hi = mpmath.mpf(0), mpmath.mpf(60)
            for _ in range(200):
                mid = (lo + hi) / 2
                if 1 - (1 + mid) * mpmath.exp(-mid) < u:
                    lo = mid
                else:
                    hi = mid
            assert abs(gamma2_inverse_cdf(u) / float(lo) - 1.0) < 1e-13, u


_U_OPEN = strategies.one_of(
    strategies.floats(min_value=2.0**-54, max_value=1.0 - 2.0**-53),
    strategies.floats(min_value=1.0, max_value=54.0).map(lambda e: 2.0**-e),
    strategies.floats(min_value=1.0, max_value=53.0).map(lambda e: 1.0 - 2.0**-e),
)


class TestGamma2Newton:
    """The Newton quantile across (0, 1), both tails included."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(strategies.lists(_U_OPEN, min_size=2, max_size=40))
    def test_matches_scipy_and_is_monotone(self, values):
        from scipy.special import gammaincinv

        u = np.unique(values)
        x = gamma2_inverse_cdf(u)
        assert np.max(np.abs(x / gammaincinv(2.0, u) - 1.0)) <= 4e-15
        assert [gamma2_inverse_cdf(float(v)) for v in u] == x.tolist()
        # Non-decreasing up to rounding, and strictly increasing wherever
        # u moves by more than the rounding can hide (the relative change
        # of the root is at least half that of u).
        lo, hi = x[:-1], x[1:]
        assert np.all(hi >= lo * (1.0 - 4e-15))
        apart = u[1:] > u[:-1] * (1.0 + 1e-13)
        assert np.all(hi[apart] > lo[apart])

    def test_against_mpmath_roots(self):
        import mpmath

        mpmath.mp.dps = 40
        u = np.concatenate([
            2.0 ** -np.arange(54.0, 1.0, -2.0),
            np.linspace(0.04, 0.96, 13),
            1.0 - 2.0 ** -np.arange(2.0, 54.0, 2.0),
        ])
        x = gamma2_inverse_cdf(u)
        for ui, xi in zip(u, x):
            root = mpmath.findroot(
                lambda y: -mpmath.expm1(-y) - y * mpmath.exp(-y) - mpmath.mpf(float(ui)), mpmath.mpf(float(xi))
            )
            assert abs(xi / root - 1) < 1e-15, ui


class TestPointSource:
    def test_block_matches_slicing(self):
        src = PointSource(dimension=5, seed=123)
        big = src.uniform_block(0, 3 * CHUNK_SIZE + 100)
        sub = src.uniform_block(CHUNK_SIZE - 50, 200)
        assert np.array_equal(big[CHUNK_SIZE - 50 : CHUNK_SIZE + 150], sub)

    def test_seed_changes_stream(self):
        a = PointSource(dimension=3, seed=1).uniform_block(0, 100)
        b = PointSource(dimension=3, seed=2).uniform_block(0, 100)
        assert not np.array_equal(a, b)

    def test_halton_block_matches_halton_points(self):
        src = PointSource(dimension=4, kind="halton", skip=1000)
        block = src.uniform_block(10, 50)
        direct = halton_points(50, 4, skip=1010)
        assert np.array_equal(block, direct)

    def test_philox_tail_rows_match_whole_chunk(self, monkeypatch):
        # Zero every double below 1e-3, a property of its stream position
        # however the chunk is read, so the 2^-54 replacement runs on both
        # the whole chunk and every range of it.
        generator = np.random.Generator

        class ZeroingGenerator:
            def __init__(self, bit_generator):
                self._gen = generator(bit_generator)

            def random(self, size=None, out=None):
                values = self._gen.random(size, out=out)
                values[values < 1e-3] = 0.0
                return values

        key = np.array([11, 1], dtype=np.uint64)
        plain = generator(np.random.Philox(key=key)).random((CHUNK_SIZE, 5))
        monkeypatch.setattr(np.random, "Generator", ZeroingGenerator)
        src = PointSource(dimension=5, seed=11)
        full = src.uniform_block(CHUNK_SIZE, CHUNK_SIZE)
        replaced = full == 2.0**-54
        assert replaced.any() and np.array_equal(replaced, plain < 1e-3)
        assert np.array_equal(full[~replaced], plain[~replaced])
        # odd starting rows begin mid-way through a four-double counter step
        ranges = [(0, 1), (0, 2048), (0, 20624), (5, 8480), (100, CHUNK_SIZE - 1)]
        ranges += [(1, 2), (2, 5), (3, 4099), (7, 2055), (CHUNK_SIZE - 3, CHUNK_SIZE)]
        for lo, hi in ranges:
            tail = src.uniform_block(CHUNK_SIZE + lo, hi - lo)
            assert tail.view(np.int64).tolist() == full[lo:hi].view(np.int64).tolist()
        # a range straddling the chunk edge reads the next chunk's head
        straddle = src.uniform_block(CHUNK_SIZE - 10, 30)
        assert np.array_equal(straddle[10:], full[:20])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        kind=strategies.sampled_from(["pseudo-random", "halton"]),
        dim=strategies.integers(1, 8),
        start=strategies.integers(0, 2 * CHUNK_SIZE),
        count=strategies.integers(0, CHUNK_SIZE + 5),
    )
    def test_any_range_is_a_slice_of_one_whole_read(self, kind, dim, start, count):
        src = PointSource(dimension=dim, kind=kind, seed=5)
        whole = src.uniform_block(0, start + count)
        part = src.uniform_block(start, count)
        assert np.array_equal(part.view(np.int64), whole[start:].view(np.int64))

    @pytest.mark.parametrize("kind", ["pseudo-random", "halton"])
    def test_chunk_tail_generates_only_its_rows(self, kind, monkeypatch):
        import phasespec.sampling as sampling

        requested = []
        if kind == "halton":
            fill = sampling._halton_fill

            def recording(plan, first, start, out):
                requested.append(out.shape[0])
                return fill(plan, first, start, out)

            monkeypatch.setattr(sampling, "_halton_fill", recording)
        else:
            generator = np.random.Generator

            class RecordingGenerator:
                def __init__(self, bit_generator):
                    self._gen = generator(bit_generator)

                def random(self, size=None, out=None):
                    requested.append(np.prod(size if out is None else out.shape, dtype=int))
                    return self._gen.random(size, out=out)

            monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
        src = PointSource(dimension=5, kind=kind, seed=2)
        tail = src.uniform_block(CHUNK_SIZE - 3, 3)
        monkeypatch.undo()
        assert np.array_equal(tail, src.uniform_block(0, CHUNK_SIZE)[-3:])
        # Halton fills 3 rows; Philox draws 3 rows plus the doubles of a
        # partly used counter step (32765 * 5 = 4 * 40953 + 1)
        assert requested == ([3] if kind == "halton" else [1, 15])

    def test_generator_identity_strings(self):
        assert "philox4x64" in PointSource(dimension=2, seed=7).generator_id
        assert "halton" in PointSource(dimension=2, kind="halton").generator_id

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSource(dimension=0)
        with pytest.raises(ValueError):
            PointSource(dimension=2, kind="sobol")
        with pytest.raises(ValueError):
            PointSource(dimension=2, kind="halton", skip=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 1.5},
            {"seed": True},
            {"seed": 1.0},
            {"kind": "halton", "skip": 2.5},
            {"dimension": 3.0},
            {"dimension": np.bool_(True)},
        ],
    )
    def test_non_integer_settings_refused(self, kwargs):
        # a float seed used to run int(seed)'s stream under its own generator id
        with pytest.raises(ValueError, match="must be an integer"):
            PointSource(**{"dimension": 3, **kwargs})

    def test_numpy_integer_settings_accepted(self):
        src = PointSource(dimension=np.int64(3), seed=np.uint64(7), skip=np.int32(10))
        assert np.array_equal(src.uniform_block(0, 4), PointSource(dimension=3, seed=7, skip=10).uniform_block(0, 4))


def component_draws(state, component, n, source):
    """(Q, P, branch, plane) of n draws from the estimator's sample assembly;
    plane is 0-based, -1 for the Husimi component."""
    return _component_arrays(state, component, source.uniform_block(0, n))


class TestComponentArrays:
    def test_husimi_moments(self):
        h = 0.05
        center_q, center_p = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        st = GaussianState.wavepacket(h, center_q, center_p)
        n = 100_000
        Q, P, _, plane = component_draws(st, "husimi", n, PointSource(dimension=6, seed=5))
        pts = np.hstack([Q, P])
        target_mean = np.concatenate([center_q, center_p])
        se_mean = np.sqrt(h / n)
        assert np.all(np.abs(pts.mean(axis=0) - target_mean) < 5 * se_mean)
        cov = np.cov(pts.T)
        se_var = h * np.sqrt(2.0 / n)
        assert np.all(np.abs(np.diag(cov) - h) < 5 * se_var)
        off_diag = cov[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 5 * h / np.sqrt(n))
        assert np.all(plane == -1)

    def test_hermite_mean_squared_radius(self):
        h = 0.05
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        n = 100_000
        Q, P, _, plane = component_draws(st, "hermite-mixture", n, PointSource(dimension=4, seed=6))
        s2 = Q[:, 0] ** 2 + P[:, 0] ** 2
        # squared plane radius is Gamma(2, 2h): mean 4h, variance 8h^2
        se = np.sqrt(8.0 * h * h / n)
        assert abs(s2.mean() - 4 * h) < 5 * se
        assert np.all(plane == 0)

    def test_hermite_radial_distribution_chi_square(self):
        h = 0.03
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        n = 100_000
        Q, P, _, _ = component_draws(st, "hermite-mixture", n, PointSource(dimension=4, seed=7))
        s2 = Q[:, 0] ** 2 + P[:, 0] ** 2
        dist = stats.gamma(a=2.0, scale=2.0 * h)
        edges = dist.ppf(np.linspace(0.0, 1.0, 21))
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(s2, bins=edges)
        statistic = np.sum((counts - n / 20.0) ** 2 / (n / 20.0))
        p_value = stats.chi2.sf(statistic, df=19)
        assert p_value > 1e-3

    def test_hermite_other_planes_gaussian(self):
        h = 0.04
        st = GaussianState.wavepacket(h, [0.5, -0.5, 0.2], [0.0, 0.3, -0.1])
        n = 60_000
        Q, _, _, planes = component_draws(st, "hermite-mixture", n, PointSource(dimension=8, seed=8))
        # uniform plane pick
        for j in (0, 1, 2):
            frac = np.mean(planes == j)
            assert abs(frac - 1 / 3) < 5 * np.sqrt((1 / 3) * (2 / 3) / n)
        # coordinates off the picked plane stay N(center, h)
        mask = planes != 0
        vals = Q[mask, 0] - 0.5
        se = np.sqrt(h / mask.sum())
        assert abs(vals.mean()) < 5 * se

    def test_branch_mixture_frequencies(self):
        h = 0.01
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-2.0], [0.0])), (2.0, PhasePoint([2.0], [0.0]))]
        )
        n = 50_000
        _, _, b, _ = component_draws(st, "husimi", n, PointSource(dimension=4, seed=9))
        # weights |c|^2: 1/5 and 4/5
        frac = np.mean(b == 1)
        assert abs(frac - 0.8) < 5 * np.sqrt(0.8 * 0.2 / n)

    def test_unknown_component(self):
        st = GaussianState.wavepacket(0.1, [0.0], [0.0])
        with pytest.raises(ValueError):
            component_draws(st, "wigner", 10, PointSource(dimension=4, seed=0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_caller_uniforms_unchanged_without_workspace(self, d):
        # the branch centers go into the workspace's spent uniforms, never
        # into the caller's array
        rng = np.random.default_rng(d)
        st = GaussianState(0.05, [1.0, 0.5j], rng.normal(size=(2, d)), rng.normal(size=(2, d)))
        u = PointSource(dimension=2 * d + 2, seed=12).uniform_block(0, 300)
        before = u.copy()
        for component in ("husimi", "hermite-mixture"):
            _component_arrays(st, component, u)
            assert np.array_equal(u.view(np.int64), before.view(np.int64))


class TestEstimator:
    def test_constant_observable_is_exactly_one(self):
        for d in (1, 2, 3):
            st = GaussianState.wavepacket(0.05, np.zeros(d), np.zeros(d))
            one = observable_from_polynomial_records([[1.0, [0] * (2 * d)]], d)
            res = estimate_expectation(st, one, method="mu", n=5000)
            assert res.value == 1.0
            res_h = estimate_expectation(st, one, method="husimi", n=5000)
            assert res_h.value == 1.0

    def test_linear_observable_both_methods(self):
        h = 0.05
        st = GaussianState.wavepacket(h, [0.37, -0.1], [0.0, 0.2])
        A = observable_from_polynomial_records([[1.0, [1, 0, 0, 0]]], 2)
        for method in ("mu", "husimi"):
            res = estimate_expectation(
                st, A, method=method, n=200_000, source=PointSource(dimension=6, seed=11)
            )
            assert abs(res.value - 0.37) < 5 * res.stderr

    @pytest.mark.parametrize("method", ["mu", "husimi"])
    @pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
    def test_value_combines_component_means(self, method, split):
        st = GaussianState.wavepacket(0.05, [0.1, 0.2], [0.3, 0.4])
        A = observable_from_polynomial_records([[1.0, [2, 0, 0, 0]]], 2)
        res = estimate_expectation(st, A, method=method, n=20_000, split=split)
        d = 2
        if method == "mu":
            expected = (1 + d / 2) * res.mean_husimi - (d / 2) * res.mean_hermite
        else:
            assert res.n_hermite == 0 and res.mean_hermite is None
            expected = res.mean_husimi
        assert res.value == pytest.approx(expected, abs=0)
        assert res.n_husimi + res.n_hermite == 20_000

    def test_split_controls_budgets(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        res = estimate_expectation(st, A, method="mu", n=10_000, split=0.25)
        assert res.n_husimi == 2500
        assert res.n_hermite == 7500
        with pytest.raises(ValueError):
            estimate_expectation(st, A, method="mu", n=100, split=1.0)

    def test_bit_identical_across_workers_and_reruns(self):
        st = GaussianState.wavepacket(0.01, [0.3, 0.3], [1.0, 0.0])
        A = torsional_potential(2)
        src = PointSource(dimension=6, seed=42)
        base = estimate_expectation(st, A, method="mu", n=150_000, source=src, workers=1)
        for workers in (2, 4, 7):
            again = estimate_expectation(st, A, method="mu", n=150_000, source=src, workers=workers)
            assert again.value == base.value
            assert again.stderr == base.stderr
        rerun = estimate_expectation(st, A, method="mu", n=150_000, source=src, workers=1)
        assert rerun.value == base.value

    def test_halton_mode_flags_deterministic(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [2, 0]]], 1)
        src = PointSource(dimension=4, kind="halton")
        res = estimate_expectation(st, A, method="mu", n=40_000, source=src)
        assert res.deterministic
        assert res.stderr == 0.0
        again = estimate_expectation(st, A, method="mu", n=40_000, source=src)
        assert again.value == res.value

    def test_stderr_scales_as_inverse_sqrt_n(self):
        st = GaussianState.wavepacket(0.05, [0.2], [0.1])
        A = observable_from_polynomial_records([[1.0, [0, 2]], [0.3, [3, 0]]], 1)
        ns = [10**3, 10**4, 10**5, 10**6]
        errs = []
        for i, n in enumerate(ns):
            res = estimate_expectation(
                st, A, method="mu", n=n, source=PointSource(dimension=4, seed=100 + i)
            )
            errs.append(res.stderr)
        slope = np.polyfit(np.log10(ns), np.log10(errs), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_stderr_halves_when_n_quadruples(self):
        st = GaussianState.wavepacket(0.05, [0.2], [0.1])
        A = observable_from_polynomial_records([[1.0, [0, 2]]], 1)
        r1 = estimate_expectation(st, A, n=50_000, source=PointSource(dimension=4, seed=3))
        r2 = estimate_expectation(st, A, n=200_000, source=PointSource(dimension=4, seed=4))
        assert r1.stderr / r2.stderr == pytest.approx(2.0, rel=0.2)

    def test_halton_error_decays_at_least_as_fast(self):
        # smooth non-polynomial observable, single branch
        st = GaussianState.wavepacket(0.01, [0.3, 0.3], [1.0, 0.0])
        A = torsional_potential(2)
        exact = weyl_expectation_gaussian(A, st)
        errs = []
        for n in (10**3, 10**6):
            res = estimate_expectation(
                st, A, method="mu", n=n, source=PointSource(dimension=6, kind="halton")
            )
            errs.append(abs(res.value - exact))
        # at least the Monte-Carlo n^{-1/2} gain, with slack
        assert errs[1] <= errs[0] * (10**-3) ** 0.5 * 3.0

    def test_degree_three_exactness_within_noise(self):
        rng = np.random.default_rng(50)
        for case in range(4):
            d = int(rng.integers(1, 3))
            h = float(rng.uniform(0.02, 0.1))
            st = GaussianState.wavepacket(h, rng.normal(size=d), rng.normal(size=d))
            terms = []
            for _ in range(4):
                exps = [0] * (2 * d)
                for _ in range(int(rng.integers(0, 4))):
                    exps[int(rng.integers(0, 2 * d))] += 1
                terms.append([float(rng.uniform(0.5, 1.5)), exps])
            A = observable_from_polynomial_records(terms, d)
            exact = weyl_expectation_gaussian(A, st)
            res = estimate_expectation(
                st, A, method="mu", n=10**6, source=PointSource(dimension=2 * d + 2, seed=60 + case)
            )
            assert abs(res.value - exact) < 5 * res.stderr + 1e-12

    def test_signed_weight_identity_against_grid(self):
        # degree-4 observable (outside the exactness class): the estimator
        # must converge to the grid quadrature of A mu, not to the Weyl value
        h = 0.08
        st = GaussianState.wavepacket(h, [0.3], [-0.2])
        A = observable_from_polynomial_records([[1.0, [0, 4]], [0.5, [2, 0]]], 1)
        grid_val = tensor_grid_expectation(st, A, "mu", points_per_axis=320)
        res = estimate_expectation(
            st, A, method="mu", n=10**7, source=PointSource(dimension=4, seed=13)
        )
        assert abs(res.value - grid_val) < 5 * res.stderr
        # and for this observable the Weyl value genuinely differs
        assert abs(weyl_expectation_gaussian(A, st) - grid_val) > 20 * res.stderr

    def test_exact_policy_importance_weights_close_branches(self):
        # branches too close for the branch mixture: importance weighting
        # against the exact densities stays unbiased, and the default
        # policy picks it
        h = 0.1
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.3], [0.2])), (0.8, PhasePoint([0.4], [-0.1]))]
        )
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        source = PointSource(dimension=4, seed=20)
        assert estimate_expectation(st, A, method="mu", n=1000, source=source) == estimate_expectation(
            st, A, method="mu", n=1000, source=source, policy=CrossTermPolicy(mode="exact")
        )
        exact = weyl_expectation_gaussian(A, st)
        res = estimate_expectation(
            st,
            A,
            method="mu",
            n=400_000,
            source=PointSource(dimension=4, seed=21),
            policy=CrossTermPolicy(mode="exact"),
        )
        assert abs(res.value - exact) < 5 * res.stderr
        res_h = estimate_expectation(
            st,
            A,
            method="husimi",
            n=400_000,
            source=PointSource(dimension=4, seed=22),
            policy=CrossTermPolicy(mode="exact"),
        )
        # husimi method on a linear observable is exact in expectation
        assert abs(res_h.value - exact) < 5 * res_h.stderr

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_exact_policy_at_high_dimension(self, d):
        # the Henon-Heiles wavepacket plus a branch 0.1 away in q_1 (pair
        # damping 0.71): the default policy weights it exactly, as the exact
        # policy does, and covers the closed form at every seed (at d = 2
        # the branch mixture would be about 10 stderr off)
        spec = HenonHeilesSpec(d=d)
        packet = spec.benchmark_state()
        q = packet.centers_q[0].copy()
        q[0] += 0.1
        st = GaussianState.from_branches(
            spec.h,
            [(1.0, PhasePoint(packet.centers_q[0], packet.centers_p[0])), (0.7j, PhasePoint(q, packet.centers_p[0]))],
        )
        A = henon_heiles_total(spec)
        source = PointSource(dimension=2 * d + 2, seed=99)
        assert estimate_expectation(st, A, n=1000, source=source) == estimate_expectation(
            st, A, n=1000, source=source, policy=CrossTermPolicy(mode="exact")
        )
        exact = weyl_expectation_gaussian(A, st)
        for seed in range(10):
            res = estimate_expectation(st, A, n=2**13, source=PointSource(dimension=2 * d + 2, seed=seed))
            assert abs(res.value - exact) < 5 * res.stderr, seed

    def test_source_dimension_checked(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        with pytest.raises(ValueError):
            estimate_expectation(st, A, n=100, source=PointSource(dimension=3, seed=0))


class TestImportanceWeights:
    """The one-table exact-policy weights against the literal ratio of the
    exact density to the branch-mixture proposal pdf times the norm."""

    COMPONENTS = ("husimi", "hermite-mixture")

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=strategies.integers(1, 4),
        d=strategies.integers(1, 3),
        h=strategies.floats(0.01, 1.0),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_equal_proposal_ratio(self, K, d, h, seed):
        rng = np.random.default_rng(seed)
        st = GaussianState(
            h,
            rng.normal(size=K) + 1j * rng.normal(size=K),
            rng.normal(size=(K, d)),
            rng.normal(size=(K, d)),
        )
        u = rng.uniform(2.0**-54, 1.0, size=(256, 2 * d + 2))
        for component in self.COMPONENTS:
            Q, P, _, _ = _component_arrays(st, component, u)
            got = _importance_weights(st, component, Q, P, state_norm2(st))
            want = proposal_ratio_weights(st, component, Q, P)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_finite_far_from_every_branch(self):
        # every overlap underflows at q = 50, so the literal ratio is 0/0;
        # the nearest branch's weight |c_k|^2 / p_k / norm remains
        st = GaussianState.from_branches(
            0.01, [(1.0, PhasePoint([-1.0], [0.0])), (0.6j, PhasePoint([1.0], [0.2]))]
        )
        Q, P = np.array([[50.0]]), np.array([[0.3]])
        norm = state_norm2(st)
        expected = np.sum(np.abs(st.coefficients) ** 2) / norm
        for component in self.COMPONENTS:
            with np.errstate(invalid="ignore"):
                assert np.isnan(proposal_ratio_weights(st, component, Q, P)).all()
            got = _importance_weights(st, component, Q, P, norm)
            assert np.isfinite(got).all()
            assert got[0] == pytest.approx(expected, rel=1e-12)


class TestInputBounds:
    def test_halton_index_beyond_int64_rejected(self):
        # base 13 is the largest for dim 6; index * base must stay below 2**53
        with pytest.raises(ValueError, match="Halton index bound"):
            halton_points(64, 6, skip=2**60)
        with pytest.raises(ValueError, match="Halton index bound"):
            halton_points(1, 6, skip=(2**53 - 1) // 13 + 1)
        with pytest.raises(ValueError, match="Halton index bound"):
            halton_points(2, 6, skip=(2**53 - 1) // 13)

    def test_halton_exact_up_to_2_53_edge(self):
        # index * 13 < 2**53 keeps base**K and the numerator exact doubles
        last = (2**53 - 1) // 13
        pts = halton_points(64, 6, skip=last - 63)
        for row, idx in zip(pts, range(last - 63, last + 1)):
            exact = [exact_radical_inverse(idx, int(b)) for b in _first_primes(6)]
            assert row.tolist() == exact

    def test_halton_bound_follows_the_largest_base(self):
        # dim 1 is base 2 alone and dim 258 ends at base 1627: the last
        # accepted index is (2**53 - 1) // b_max, exact in every coordinate
        for dim in (1, 258):
            primes = [int(b) for b in _first_primes(dim)]
            last = (2**53 - 1) // primes[-1]
            row = halton_points(1, dim, skip=last)[0]
            assert row.tolist() == [exact_radical_inverse(last, b) for b in primes]
            with pytest.raises(ValueError, match="Halton index bound"):
                halton_points(1, dim, skip=last + 1)

    def test_halton_source_reads_its_chunk_up_to_the_bound(self):
        # the chunk of skip runs past (2**53 - 1) // 13, the last index a
        # dim-6 source admits: every index up to it reads, bit for bit, as
        # halton_points does, and a read past it is refused
        last = (2**53 - 1) // 13
        skip = last - 2000
        src = PointSource(dimension=6, kind="halton", skip=skip)
        whole = halton_points(2001, 6, skip=skip)
        for start, count in ((0, 1000), (0, 2001), (1500, 501)):
            block = src.uniform_block(start, count)
            assert block.view(np.int64).tolist() == whole[start : start + count].view(np.int64).tolist()
        for start, count in ((0, 2002), (2001, 1)):
            with pytest.raises(ValueError, match="Halton index bound"):
                src.uniform_block(start, count)
        with pytest.raises(ValueError, match="Halton index bound"):
            PointSource(dimension=6, kind="halton", skip=last + 1).uniform_block(0, 1)

    def test_workers_below_one_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                estimate_expectation(st, A, n=100, workers=workers)


class TestSharedStream:
    """A sequence of observables reads each chunk once and returns, per
    observable, the result of a single-observable call bit for bit."""

    @staticmethod
    def state():
        # two d = 2 branches far enough apart for the neglect policy
        return GaussianState.from_branches(
            0.05,
            [
                (1.0, PhasePoint([0.0, 0.3], [0.2, 0.0])),
                (0.5j, PhasePoint([4.0, -0.5], [-0.3, 4.0])),
            ],
        )

    @pytest.mark.parametrize("kind", ["halton", "pseudo-random"])
    @pytest.mark.parametrize("mode", ["neglect", "exact"])
    @pytest.mark.parametrize("method", ["mu", "husimi"])
    def test_sequence_matches_single_calls(self, kind, mode, method):
        st = self.state()
        observables = [
            observable_from_polynomial_records([[1.0, [2, 0, 0, 1]], [0.5, [0, 1, 0, 0]]], 2),
            torsional_potential(2),
        ]
        source = PointSource(dimension=6, kind=kind, seed=7)
        # two chunks per component, so the pairwise reduction is exercised
        kwargs = dict(
            method=method, n=2 * CHUNK_SIZE + 1000, source=source,
            policy=CrossTermPolicy(mode=mode),
        )
        singles = [estimate_expectation(st, A, **kwargs) for A in observables]
        for workers in (1, 2):
            shared = estimate_expectation(st, tuple(observables), workers=workers, **kwargs)
            assert isinstance(shared, list)
            assert shared == singles

    @pytest.mark.parametrize("kind", ["halton", "pseudo-random"])
    @pytest.mark.parametrize("mode", ["neglect", "exact"])
    @pytest.mark.parametrize("method", ["mu", "husimi"])
    @pytest.mark.parametrize("shared_parts", [True, False])
    def test_sum_observable_matches_single_calls(self, kind, mode, method, shared_parts):
        # hh-total is summed from its parts' values; with separate part
        # objects listed, each of them is evaluated as well
        st = self.state()
        spec = HenonHeilesSpec(d=2)
        total = henon_heiles_total(spec)
        observables = (*(total.parts if shared_parts else henon_heiles_energy(spec)), total)
        source = PointSource(dimension=6, kind=kind, seed=7)
        kwargs = dict(
            method=method, n=2 * CHUNK_SIZE + 1000, source=source,
            policy=CrossTermPolicy(mode=mode),
        )
        singles = [estimate_expectation(st, A, **kwargs) for A in observables]
        for workers in (1, 2):
            assert estimate_expectation(st, observables, workers=workers, **kwargs) == singles

    def test_sum_observable_evaluates_each_object_once(self):
        calls = []

        def logged(label, fn):
            def f(Q, P):
                calls.append(label)
                return fn(Q, P)

            return f

        q1 = lambda Q, P: Q[:, 0]
        p2 = lambda Q, P: P[:, 1] ** 2
        a, b = Observable("a", logged("a", q1)), Observable("b", logged("b", p2))
        total = Observable("a+b", logged("a+b", lambda Q, P: q1(Q, P) + p2(Q, P)), parts=(a, b))
        # 2500 rows per component: two blocks each
        for observables, want in (
            ((a, b, total), {"a": 4, "b": 4}),
            ((total, a), {"a": 4, "b": 4}),
            ((total, total), {"a": 4, "b": 4}),
            ((total,), {"a": 4, "b": 4}),
        ):
            calls.clear()
            estimate_expectation(self.state(), observables, n=5000)
            assert {label: calls.count(label) for label in set(calls)} == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pass_leaves_no_reference_cycles(self, workers):
        # a cycle through a block's values would keep every block's samples
        # alive until the cyclic collector runs, raising the peak memory
        total = henon_heiles_total(HenonHeilesSpec(d=2))
        kwargs = dict(n=20000, source=PointSource(dimension=6, kind="halton"), workers=workers)
        gc.collect()
        gc.disable()
        try:
            estimate_expectation(self.state(), (*total.parts, total), **kwargs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_sequence_refused(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        with pytest.raises(ValueError, match="at least one observable"):
            estimate_expectation(st, [], n=100)


def _blocked_cases():
    for kind in ("pseudo-random", "halton"):
        for method in ("mu", "husimi"):
            for K in (1, 3):
                for d in (1, 2, 8, 33):
                    yield kind, method, K, d, "neglect"
                    if d <= 3:
                        yield kind, method, K, d, "exact"


class TestBlockedPass:
    """The estimator's row-blocked pass over each chunk returns the
    whole-chunk pass bit for bit."""

    @staticmethod
    def state(K, d):
        # branches 4 apart in q_1: negligible cross terms at h = 0.05
        branches = []
        for k, c in enumerate((1.0, 0.5j, -0.7 + 0.2j)[:K]):
            q = np.full(d, 0.1)
            q[0] += 4.0 * k
            branches.append((c, PhasePoint(q, np.linspace(-0.3, 0.3, d))))
        return GaussianState.from_branches(0.05, branches)

    @staticmethod
    def observables(d):
        cubic = [0] * (2 * d)
        cubic[0] += 2
        cubic[2 * d - 1] += 1
        linear = [0] * (2 * d)
        linear[d - 1] = 1
        return [
            observable_from_polynomial_records([[1.0, cubic], [0.5, linear]], d),
            Observable("p-squared", lambda Q, P: np.sum(P * P, axis=1)),
        ]

    @staticmethod
    def bits(rows):
        """(value, stderr, mean_husimi, mean_hermite) rows, or results, as int64 bits."""
        rows = [r if isinstance(r, tuple) else (r.value, r.stderr, r.mean_husimi, r.mean_hermite) for r in rows]
        return np.array([[np.nan if x is None else x for x in row] for row in rows]).view(np.int64)

    @pytest.mark.parametrize("kind,method,K,d,mode", list(_blocked_cases()))
    def test_equals_whole_chunk_pass(self, kind, method, K, d, mode):
        st = self.state(K, d)
        observables = self.observables(d)
        source = PointSource(dimension=2 * d + 2, kind=kind, seed=3)
        # The mu split puts the Hermite range across the first chunk edge;
        # neither range is a whole number of blocks.
        n = CHUNK_SIZE + 3001
        got = estimate_expectation(
            st, observables, method=method, n=n, source=source, policy=CrossTermPolicy(mode=mode)
        )
        want = whole_chunk_estimate(st, observables, method, n, source, exact=mode == "exact")
        assert np.array_equal(self.bits(got), self.bits(want))

    @pytest.mark.parametrize("kind,method,K,d,mode", [c for c in _blocked_cases() if c[3] in (2, 33)])
    @pytest.mark.parametrize("shared_parts", [True, False])
    def test_sum_observable_equals_whole_chunk_pass(self, kind, method, K, d, mode, shared_parts):
        # the oracle evaluates hh-total through its own fn on whole chunks
        st = self.state(K, d)
        spec = HenonHeilesSpec(d=d)
        total = henon_heiles_total(spec)
        observables = (*(total.parts if shared_parts else henon_heiles_energy(spec)), total)
        source = PointSource(dimension=2 * d + 2, kind=kind, seed=3)
        n = CHUNK_SIZE + 3001
        policy = CrossTermPolicy(mode=mode)
        want = self.bits(whole_chunk_estimate(st, observables, method, n, source, exact=mode == "exact"))
        for workers in (1, 2):
            got = estimate_expectation(
                st, observables, method=method, n=n, source=source, policy=policy, workers=workers
            )
            assert np.array_equal(self.bits(got), want)


class TestBlockMemory:
    """The estimator streams each chunk through one block workspace per
    worker and never holds a whole chunk of uniforms."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_peak_below_one_chunk(self, workers):
        import tracemalloc

        spec = HenonHeilesSpec(d=32)
        state = spec.benchmark_state()
        total = henon_heiles_total(spec)
        source = PointSource(dimension=66, seed=4)
        tracemalloc.start()
        try:
            estimate_expectation(state, total, n=2 * CHUNK_SIZE, source=source, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (CHUNK_SIZE, 66) chunk of uniforms is 16.5 MiB
        assert peak < CHUNK_SIZE * 66 * 8

    @pytest.mark.parametrize("d", [32, 128])
    @pytest.mark.parametrize("kind", ["pseudo-random", "halton"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_peak_of_lean_blocks(self, d, kind, workers):
        import tracemalloc

        # A worker's block holds 4d + 2 doubles a row (uniforms, Q and P);
        # with the observable's temporaries an estimate peaked at 6.2-6.8 d
        # doubles a block row per worker, plus up to 1.8 d with Halton plans.
        # A (7d + 2)-double block with separate normals and centers peaked at
        # 8.3-9.8 d per worker, plus 2.3-2.9 d with Halton plans.
        spec = HenonHeilesSpec(d=d)
        state = spec.benchmark_state()
        total = henon_heiles_total(spec)
        # a skip of its own per case, so no earlier case's chunk plan is reused
        source = PointSource(dimension=2 * d + 2, kind=kind, seed=4, skip=1000 + d + workers)
        tracemalloc.start()
        try:
            estimate_expectation(state, total, n=2 * CHUNK_SIZE, source=source, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_row = 7.75 * d * workers + (2.5 * d if kind == "halton" else 0.0)
        assert peak < _BLOCK_ROWS * 8 * per_row
