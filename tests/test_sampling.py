import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from phasespec import (
    CrossTermPolicy,
    GaussianState,
    PhasePoint,
    PointSource,
    estimate_expectation,
    gamma2_cdf,
    gamma2_inverse_cdf,
    halton_points,
    inverse_normal_cdf,
    reference_expectation_grid,
    sample_component,
    state_norm2,
    weyl_expectation_gaussian,
)
from phasespec.exceptions import NonNegligibleCrossTermsError
from phasespec.observables import observable_from_polynomial_records, torsional_potential
from phasespec.quadrature import tensor_grid_expectation
from phasespec.sampling import CHUNK_SIZE, _first_primes


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

    def test_leap(self):
        leaped = halton_points(3, 1, skip=1, leap=4)
        direct = [exact_radical_inverse(i, 2) for i in (1, 5, 9)]
        assert leaped[:, 0].tolist() == direct

    def test_dimension_guard_configurable(self):
        with pytest.raises(ValueError, match="prime-table bound"):
            halton_points(1, 65, skip=1)
        pts = halton_points(1, 70, skip=1, max_dim=70)
        assert pts.shape == (1, 70)
        assert np.all((pts > 0) & (pts < 1))

    def test_values_in_open_interval(self):
        pts = halton_points(500, 6, skip=1)
        assert np.all((pts > 0.0) & (pts < 1.0))


class TestInverseNormalCdf:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == 0.0

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
            assert inverse_normal_cdf(u) == pytest.approx(0.5 * (lo + hi), abs=1e-6)
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10_000)
        x = inverse_normal_cdf(u)
        back = 0.5 * np.array([math.erfc(-xi / math.sqrt(2.0)) for xi in x])
        assert np.max(np.abs(back - u)) < 1e-9

    def test_extreme_tail_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 40
        for u in (1e-15, 1e-12, 1e-6, 0.3, 1 - 1e-6, 1 - 1e-12, 1 - 1e-15):
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1))
            assert abs(inverse_normal_cdf(u) - exact) < 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inverse_normal_cdf(bad)
        with pytest.raises(ValueError):
            inverse_normal_cdf(np.array([0.5, 1.0]))


class TestGamma2InverseCdf:
    def test_cdf_endpoint(self):
        assert gamma2_cdf(0.0) == 0.0

    def test_closed_form_checkpoint(self):
        u = 1.0 - 2.0 / np.e
        assert gamma2_inverse_cdf(u) == pytest.approx(1.0, rel=1e-10)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10_000)
        x = gamma2_inverse_cdf(u)
        back = gamma2_cdf(x)
        assert np.max(np.abs(back - u) / u) < 1e-10

    def test_monotone_and_extremes(self):
        u = np.array([1e-14, 1e-8, 0.2642411, 0.9, 1 - 1e-12])
        x = gamma2_inverse_cdf(u)
        assert np.all(np.diff(x) > 0)
        assert np.allclose(gamma2_cdf(x), u, rtol=1e-9, atol=1e-16)

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

    def test_cdf_small_argument_and_negative(self):
        import mpmath

        mpmath.mp.dps = 40
        for x in (1e-9, 1e-6):
            exact = float(1 - (1 + mpmath.mpf(x)) * mpmath.exp(-mpmath.mpf(x)))
            assert abs(gamma2_cdf(x) / exact - 1.0) < 1e-13, x
        assert gamma2_cdf(-1.0) == 0.0


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


class TestSampleComponent:
    def test_husimi_moments(self):
        h = 0.05
        center_q, center_p = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        st = GaussianState.wavepacket(h, center_q, center_p)
        n = 100_000
        samples = sample_component(st, "husimi", n, PointSource(dimension=6, seed=5))
        pts = np.array([np.concatenate([s.point.q, s.point.p]) for s in samples])
        target_mean = np.concatenate([center_q, center_p])
        se_mean = np.sqrt(h / n)
        assert np.all(np.abs(pts.mean(axis=0) - target_mean) < 5 * se_mean)
        cov = np.cov(pts.T)
        se_var = h * np.sqrt(2.0 / n)
        assert np.all(np.abs(np.diag(cov) - h) < 5 * se_var)
        off_diag = cov[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 5 * h / np.sqrt(n))
        assert all(s.plane is None and s.component == "husimi" for s in samples[:100])

    def test_hermite_mean_squared_radius(self):
        h = 0.05
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        n = 100_000
        samples = sample_component(st, "hermite-mixture", n, PointSource(dimension=4, seed=6))
        s2 = np.array([s.point.q[0] ** 2 + s.point.p[0] ** 2 for s in samples])
        # squared plane radius is Gamma(2, 2h): mean 4h, variance 8h^2
        se = np.sqrt(8.0 * h * h / n)
        assert abs(s2.mean() - 4 * h) < 5 * se
        assert all(s.plane == 1 for s in samples[:100])

    def test_hermite_radial_distribution_chi_square(self):
        h = 0.03
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        n = 100_000
        samples = sample_component(st, "hermite-mixture", n, PointSource(dimension=4, seed=7))
        s2 = np.array([s.point.q[0] ** 2 + s.point.p[0] ** 2 for s in samples])
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
        samples = sample_component(st, "hermite-mixture", n, PointSource(dimension=8, seed=8))
        planes = np.array([s.plane for s in samples])
        # uniform plane pick
        for j in (1, 2, 3):
            frac = np.mean(planes == j)
            assert abs(frac - 1 / 3) < 5 * np.sqrt((1 / 3) * (2 / 3) / n)
        # coordinates off the picked plane stay N(center, h)
        pts_q = np.array([s.point.q for s in samples])
        mask = planes != 1
        vals = pts_q[mask, 0] - 0.5
        se = np.sqrt(h / mask.sum())
        assert abs(vals.mean()) < 5 * se

    def test_branch_mixture_frequencies(self):
        h = 0.01
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-2.0], [0.0])), (2.0, PhasePoint([2.0], [0.0]))]
        )
        n = 50_000
        samples = sample_component(st, "husimi", n, PointSource(dimension=4, seed=9))
        b = np.array([s.branch for s in samples])
        # weights |c|^2: 1/5 and 4/5
        frac = np.mean(b == 1)
        assert abs(frac - 0.8) < 5 * np.sqrt(0.8 * 0.2 / n)

    def test_refuses_overlapping_branches_in_neglect_mode(self):
        st = GaussianState.from_branches(
            0.1, [(1.0, PhasePoint([0.0], [0.0])), (1.0, PhasePoint([0.3], [0.0]))]
        )
        with pytest.raises(NonNegligibleCrossTermsError):
            sample_component(st, "husimi", 10, PointSource(dimension=4, seed=0))

    def test_unknown_component(self):
        st = GaussianState.wavepacket(0.1, [0.0], [0.0])
        with pytest.raises(ValueError):
            sample_component(st, "wigner", 10, PointSource(dimension=4, seed=0))


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

    def test_value_combines_component_means(self):
        st = GaussianState.wavepacket(0.05, [0.1, 0.2], [0.3, 0.4])
        A = observable_from_polynomial_records([[1.0, [2, 0, 0, 0]]], 2)
        res = estimate_expectation(st, A, method="mu", n=20_000)
        d = 2
        assert res.value == pytest.approx(
            (1 + d / 2) * res.mean_husimi - (d / 2) * res.mean_hermite, abs=0
        )
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
        exact = reference_expectation_grid(st, A, "position")
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
        # branches too close for the neglect policy: importance weighting
        # against the exact densities stays unbiased
        h = 0.1
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.3], [0.2])), (0.8, PhasePoint([0.4], [-0.1]))]
        )
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        with pytest.raises(NonNegligibleCrossTermsError):
            estimate_expectation(st, A, method="mu", n=1000)
        exact = reference_expectation_grid(st, A, "position")
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

    def test_exact_policy_limited_to_low_dimension(self):
        st = GaussianState.wavepacket(0.05, np.zeros(4), np.zeros(4))
        A = observable_from_polynomial_records([[1.0, [0] * 8]], 4)
        with pytest.raises(ValueError):
            estimate_expectation(st, A, policy=CrossTermPolicy(mode="exact"), n=100)

    def test_source_dimension_checked(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        with pytest.raises(ValueError):
            estimate_expectation(st, A, n=100, source=PointSource(dimension=3, seed=0))


class TestInputBounds:
    def test_halton_index_beyond_int64_rejected(self):
        # base 13 is the largest for dim 6; index * base must stay below 2**63
        with pytest.raises(ValueError, match="Halton index bound"):
            halton_points(64, 6, skip=2**60, max_dim=6)
        with pytest.raises(ValueError, match="Halton index bound"):
            halton_points(2, 6, skip=(2**63 - 1) // 13, max_dim=6)
        last = (2**63 - 1) // 13
        pts = halton_points(1, 6, skip=last, max_dim=6)[0]
        exact = [exact_radical_inverse(last, int(b)) for b in _first_primes(6)]
        np.testing.assert_allclose(pts, exact, rtol=0, atol=1e-15)

    def test_halton_exact_up_to_2_53_edge(self):
        # index * 13 < 2**53 keeps base**K and the numerator exact doubles
        last = (2**53 - 1) // 13
        pts = halton_points(64, 6, skip=last - 63, max_dim=6)
        for row, idx in zip(pts, range(last - 63, last + 1)):
            exact = [exact_radical_inverse(idx, int(b)) for b in _first_primes(6)]
            assert row.tolist() == exact

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

    def test_empty_sequence_refused(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        with pytest.raises(ValueError, match="at least one observable"):
            estimate_expectation(st, [], n=100)
