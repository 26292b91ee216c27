import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from phasespec import GaussianState, PhasePoint, state_norm2, weyl_expectation_gaussian
from phasespec.experiments import benchmark_superposition
from phasespec.observables import (
    HenonHeilesSpec,
    Observable,
    PolynomialSymbol,
    henon_heiles_energy,
    observable_from_polynomial_records,
    quartic_momentum,
    torsional_potential,
)
from phasespec.quadrature import (
    _BLOCK_POINTS,
    _axis_blocks,
    _plane_bounds,
    _ordered_product,
    plane_axes,
    tensor_grid_expectation,
    tensor_grid_integrals,
)
from _oracles import _trapezoid_weights, delete_order_products, direct_grid_integrals, tensor_grid_every_row


class TestFactoredVersusDirect:
    def test_d1_superposition_all_methods(self):
        h = 0.08
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([0.1], [0.2])), (0.5 - 0.2j, PhasePoint([0.8], [-0.5]))]
        )
        A = observable_from_polynomial_records([[1.0, [3, 0]], [0.5, [1, 2]], [2.0, [0, 0]]], 1)
        for method in ("mu", "husimi", "hermite-mixture"):
            fast = tensor_grid_integrals(st, A, method, points_per_axis=80)
            slow = direct_grid_integrals(st, A, method, points_per_axis=80)
            assert fast[0] == pytest.approx(slow[0], rel=1e-12)
            assert fast[1] == pytest.approx(slow[1], rel=1e-12)

    def test_d2_benchmark_state(self):
        st = benchmark_superposition(0.1)
        for A in (torsional_potential(2), quartic_momentum(2)):
            fast = tensor_grid_integrals(st, A, "mu", points_per_axis=40)
            slow = direct_grid_integrals(st, A, "mu", points_per_axis=40)
            assert fast[0] == pytest.approx(slow[0], rel=1e-11)
            assert fast[1] == pytest.approx(slow[1], rel=1e-11)

    def test_d2_three_branches_complex_coefficients(self):
        st = GaussianState.from_branches(
            0.1,
            [
                (1.0 + 0.5j, PhasePoint([0.2, -0.3], [0.1, 0.4])),
                (-0.7j, PhasePoint([0.6, 0.1], [-0.3, 0.2])),
                (0.4 - 0.8j, PhasePoint([-0.2, 0.5], [0.3, -0.4])),
            ],
        )
        A = observable_from_polynomial_records([[1.0, [1, 2, 0, 1]], [-0.5, [0, 0, 3, 0]]], 2)
        for method in ("mu", "husimi", "hermite-mixture"):
            fast = tensor_grid_integrals(st, A, method, points_per_axis=30)
            slow = direct_grid_integrals(st, A, method, points_per_axis=30)
            assert fast[0] == pytest.approx(slow[0], rel=1e-11), method
            assert fast[1] == pytest.approx(slow[1], rel=1e-11), method


class TestNormalization:
    def test_density_integrals_equal_norm2(self):
        rng = np.random.default_rng(61)
        for d in (1, 2):
            st = GaussianState.from_branches(
                0.06,
                [
                    (1.0 + 0.2j, PhasePoint(rng.normal(size=d), rng.normal(size=d))),
                    (0.6, PhasePoint(rng.normal(size=d), rng.normal(size=d))),
                ],
            )
            norm = state_norm2(st)
            for method in ("mu", "husimi", "hermite-mixture"):
                _, total = tensor_grid_integrals(st, None, method, points_per_axis=220)
                assert total == pytest.approx(norm, rel=1e-8)


class TestExactnessClass:
    def test_degree_three_matches_weyl(self):
        rng = np.random.default_rng(62)
        for d in (1, 2):
            for _ in range(5):
                h = float(rng.uniform(0.02, 0.15))
                st = GaussianState.wavepacket(h, rng.normal(size=d), rng.normal(size=d))
                terms = []
                for _ in range(5):
                    exps = [0] * (2 * d)
                    for _ in range(int(rng.integers(0, 4))):
                        exps[int(rng.integers(0, 2 * d))] += 1
                    terms.append([float(rng.uniform(0.5, 1.5)), exps])
                A = observable_from_polynomial_records(terms, d)
                exact = weyl_expectation_gaussian(A, st)
                grid = tensor_grid_expectation(st, A, "mu", points_per_axis=160)
                assert grid == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_husimi_not_exact_beyond_linear(self):
        # quadratic observables expose the O(h) Husimi bias h/2 per variance
        h = 0.1
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        A = observable_from_polynomial_records([[1.0, [2, 0]]], 1)
        hus = tensor_grid_expectation(st, A, "husimi", points_per_axis=200)
        exact = weyl_expectation_gaussian(A, st)
        assert hus - exact == pytest.approx(h / 2.0, rel=1e-8)


class TestEngineInputs:
    def test_non_separable_observable_rejected(self):
        from phasespec.observables import Observable

        st = GaussianState.wavepacket(0.05, [0.0, 0.0], [0.0, 0.0])
        A = Observable("radial-cos", lambda Q, P: np.cos(np.sqrt(np.sum(Q**2 + P**2, axis=1))))
        with pytest.raises(ValueError, match="decomposition"):
            tensor_grid_integrals(st, A, "mu")

    @pytest.mark.parametrize("points", [0, 1])
    def test_grid_under_two_points_rejected(self, points):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        with pytest.raises(ValueError, match="at least 2 points"):
            tensor_grid_integrals(st, None, "mu", points_per_axis=points)

    def test_unknown_method_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        with pytest.raises(ValueError):
            tensor_grid_integrals(st, None, "wigner")


METHODS = ("mu", "husimi", "hermite-mixture")


def random_superposition(rng, K, d, h):
    """K branches with complex coefficients and centers in [-1, 1]^(2d)."""
    return GaussianState.from_branches(
        h,
        [
            (
                complex(*rng.uniform(-1.0, 1.0, size=2)),
                PhasePoint(rng.uniform(-1.0, 1.0, size=d), rng.uniform(-1.0, 1.0, size=d)),
            )
            for _ in range(K)
        ],
    )


class TestDimensionMismatch:
    """An observable over another number of planes than the state's is
    refused, not truncated or indexed past the end."""

    @pytest.mark.parametrize(
        "A",
        [
            observable_from_polynomial_records([[1.0, [0, 0, 2, 0, 0, 0]]], 3),
            observable_from_polynomial_records([[1.0, [2, 0]]], 1),
            torsional_potential(3),
        ],
        ids=["polynomial-d3", "polynomial-d1", "torsional-d3"],
    )
    def test_refused(self, A):
        st = benchmark_superposition(0.1)
        with pytest.raises(ValueError, match="observable and state dimensions differ"):
            tensor_grid_integrals(st, A, "mu", points_per_axis=20)
        with pytest.raises(ValueError, match="observable and state dimensions differ"):
            tensor_grid_integrals(st, [quartic_momentum(2), A], ["mu", "husimi"], points_per_axis=20)


class TestSharedPass:
    """One call over several methods and observables returns exactly what
    separate single calls return, and both equal the walk that sums every
    term's Gram rows with no sharing or copying."""

    @staticmethod
    def observables(rng, d):
        out = [None, quartic_momentum(d)]
        if d >= 2:
            # hh-kinetic's p_j^2 plane factors are quartic-momentum's too
            out += [torsional_potential(d), henon_heiles_energy(HenonHeilesSpec(d))[0]]
        # a constant term, a term on the first plane only (None factors on
        # the others) and a random term of degree <= 4
        records = [[2.5, [0] * (2 * d)], [-0.7, [1] + [0] * (d - 1) + [2] + [0] * (d - 1)]]
        exps = [0] * (2 * d)
        for _ in range(int(rng.integers(1, 5))):
            exps[int(rng.integers(0, 2 * d))] += 1
        records.append([float(rng.uniform(-1.5, 1.5)), exps])
        out.append(observable_from_polynomial_records(records, d))
        return out

    # d >= 3 multiplies three or more plane factors in each product, and the
    # oracle forms them by np.prod over np.delete
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_equals_single_calls(self, K, d):
        rng = np.random.default_rng(100 * K + d)
        st = random_superposition(rng, K, d, 0.08)
        observables = self.observables(rng, d)
        points = {3: 16, 4: 8}.get(d, 40)
        shared = tensor_grid_integrals(st, observables, METHODS, points_per_axis=points)
        assert list(shared) == list(METHODS)
        for method in METHODS:
            assert len(shared[method]) == len(observables)
            for A, pair in zip(observables, shared[method]):
                assert pair == tensor_grid_integrals(st, A, method, points_per_axis=points)
                assert pair == tensor_grid_every_row(st, A, method, points)

    @pytest.mark.parametrize("d", [1, 3])
    def test_husimi_only_equals_shared_entry(self, d):
        # a husimi-only walk builds no plane offsets, yet its pairs are the
        # husimi entries of a walk that does
        rng = np.random.default_rng(7 + d)
        st = random_superposition(rng, 3, d, 0.08)
        observables = self.observables(rng, d)
        points = 16 if d == 3 else 40
        shared = tensor_grid_integrals(st, observables, ["mu", "husimi"], points_per_axis=points)
        alone = tensor_grid_integrals(st, observables, ["husimi"], points_per_axis=points)
        assert alone == {"husimi": shared["husimi"]}

    def test_single_arguments_keep_pair_shape(self):
        st = benchmark_superposition(0.1)
        A = quartic_momentum(2)
        pair = tensor_grid_integrals(st, A, "mu", points_per_axis=30)
        assert isinstance(pair, tuple) and len(pair) == 2
        assert tensor_grid_integrals(st, [A], "mu", points_per_axis=30) == {"mu": [pair]}
        assert tensor_grid_integrals(st, A, ["mu"], points_per_axis=30) == {"mu": [pair]}
        ratios = tensor_grid_expectation(st, [A, None], ["husimi", "mu"], points_per_axis=30)
        assert ratios["mu"][0] == pair[0] / pair[1]
        assert ratios["husimi"][1] == 1.0

    def test_empty_or_unknown_refused(self):
        st = benchmark_superposition(0.1)
        for observable, method in (([], "mu"), (None, []), (None, ["mu", "wigner"])):
            with pytest.raises(ValueError):
                tensor_grid_integrals(st, observable, method, points_per_axis=20)


class TestPlaneProducts:
    """The grid multiplies its plane factors left to right, in place, with no
    deleted copies of the plane stack, yet every product has the doubles of
    ``np.prod`` over ``np.delete`` (the combined kernels are compared with
    that oracle in TestSharedPass)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_products_equal_delete_order(self, K, d):
        rng = np.random.default_rng(10 * K + d)
        for _ in range(50):
            # magnitudes over many binades, so a product's rounding shows
            i0 = (rng.normal(size=(d, K, K)) + 1j * rng.normal(size=(d, K, K))) * 10.0 ** rng.integers(
                -8, 9, size=(d, K, K)
            )
            want_all, want_deleted = delete_order_products(i0)
            assert _ordered_product(list(i0)).tobytes() == want_all.tobytes()
            for j, want in enumerate(want_deleted):
                got = _ordered_product(list(i0[:j]) + list(i0[j + 1 :]))
                assert np.broadcast_to(got, (K, K)).tobytes() == want.tobytes()
            assert d > 1 or _ordered_product([]) == 1.0 + 0j


class TestSuperpositionProperties:
    """Hypothesis checks of the paper's claims on random K <= 3, d <= 2
    superpositions with complex coefficients, interference included."""

    @staticmethod
    def draw_state(data, K, d):
        h = data.draw(strategies.floats(0.03, 0.2), label="h")
        seed = data.draw(strategies.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        try:
            st = random_superposition(rng, K, d, h)
        except ValueError:
            assume(False)  # a zero-norm draw is not a state
        # branches that nearly cancel leave a norm far below the coefficient
        # scale, where relative comparisons lose their meaning
        assume(state_norm2(st) > 0.05 * np.sum(np.abs(st.coefficients) ** 2))
        return st, rng

    # Degree <= 3 symbols, one-sided or mixing q and p.  Largest
    # |closed form - grid mu| over the 40 examples: 4.9e-16 of the scale.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(K=strategies.integers(1, 3), d=strategies.integers(1, 2), data=strategies.data())
    def test_moment_reference_equals_grid_mu(self, K, d, data):
        st, rng = self.draw_state(data, K, d)
        records = []
        for _ in range(int(rng.integers(1, 5))):
            exps = [0] * (2 * d)
            for _ in range(int(rng.integers(0, 4))):
                exps[int(rng.integers(0, 2 * d))] += 1
            records.append([float(rng.uniform(-2.0, 2.0)), exps])
        A = observable_from_polynomial_records(records, d)
        exact = weyl_expectation_gaussian(A, st)
        grid = tensor_grid_expectation(st, A, "mu", points_per_axis=160)
        R = 1.0 + max(np.max(np.abs(st.centers_q)), np.max(np.abs(st.centers_p)))
        scale = sum(abs(c) * R ** sum(e) for c, e, _ in A.polynomial.terms)
        assert abs(exact - grid) <= 1e-12 * scale

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(K=strategies.integers(1, 3), d=strategies.integers(1, 2), data=strategies.data())
    def test_every_density_integrates_to_the_norm(self, K, d, data):
        st, _ = self.draw_state(data, K, d)
        shared = tensor_grid_integrals(st, [None], METHODS, points_per_axis=220)
        norm = state_norm2(st)
        # largest relative gap over the 40 examples and 3 methods: 3.1e-14
        for method in METHODS:
            num, den = shared[method][0]
            assert num == den
            assert den == pytest.approx(norm, rel=1e-11), method

    # Random symbols of degree <= 3 with cosine factors, every method.  Largest
    # gaps seen over 30 such draws: 2.7e-15 relative in den and 1.3e-15 of
    # scale * den in num.
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(K=strategies.integers(1, 3), d=strategies.integers(1, 2), data=strategies.data())
    def test_factored_walk_equals_direct_sum(self, K, d, data):
        st, rng = self.draw_state(data, K, d)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            exps, freqs = [0] * (2 * d), [0.0] * (2 * d)
            for _ in range(int(rng.integers(0, 4))):
                exps[int(rng.integers(0, 2 * d))] += 1
            if rng.uniform() < 0.4:
                freqs[int(rng.integers(0, 2 * d))] = float(rng.uniform(0.5, 3.0))
            terms.append((float(rng.uniform(-2.0, 2.0)), tuple(exps), tuple(freqs)))
        poly = PolynomialSymbol(tuple(terms))
        A = Observable("symbol", poly.evaluate, polynomial=poly)
        points = 48 if d == 1 else 20
        shared = tensor_grid_integrals(st, [A], METHODS, points_per_axis=points)
        R = 1.0 + max(np.max(np.abs(st.centers_q)), np.max(np.abs(st.centers_p))) + 12.0 * np.sqrt(st.h)
        scale = sum(abs(c) * R ** sum(e) for c, e, _ in poly.terms)
        for method in METHODS:
            num, den = shared[method][0]
            direct_num, direct_den = direct_grid_integrals(st, A, method, points)
            assert den == pytest.approx(direct_den, rel=1e-11), method
            assert abs(num - direct_num) <= 1e-11 * scale * abs(direct_den), method


class TestAxisBlocks:
    """The axis walk builds its nodes and weights block by block, never an
    array of the whole axis, yet bit-equal to ``plane_axes`` and the
    trapezoid weights of the direct-sum oracle."""

    @staticmethod
    def check(lo, hi, n, axis):
        blocks = list(_axis_blocks(lo, hi, n))
        assert all(x.size == w.size == _BLOCK_POINTS for x, w in blocks[:-1])
        assert 1 <= blocks[-1][0].size == blocks[-1][1].size <= _BLOCK_POINTS
        nodes = np.concatenate([x for x, _ in blocks])
        weights = np.concatenate([w for _, w in blocks])
        assert nodes.tobytes() == axis.tobytes()
        assert weights.tobytes() == _trapezoid_weights(axis).tobytes()

    @pytest.mark.parametrize(
        "n", [2, 3, _BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1, 2 * _BLOCK_POINTS, 3 * _BLOCK_POINTS + 17]
    )
    def test_bit_equal_to_plane_axes(self, n):
        rng = np.random.default_rng(n)
        for K, d, h in ((1, 1, 0.05), (3, 2, 0.013), (2, 3, 0.2)):
            st = random_superposition(rng, K, d, h)
            for bounds, axes in zip(_plane_bounds(st), plane_axes(st, n)):
                for (lo, hi), axis in zip(bounds, axes):
                    self.check(lo, hi, n, axis)

    @pytest.mark.parametrize("n", [2, _BLOCK_POINTS + 1, 5 * _BLOCK_POINTS - 3])
    def test_bit_equal_to_linspace_on_random_bounds(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            lo = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
            hi = lo + float(rng.uniform(1e-3, 1.0) * 10.0 ** rng.integers(-2, 3))
            self.check(lo, hi, n, np.linspace(lo, hi, n))

    def test_walk_memory_does_not_grow_with_the_grid(self):
        import tracemalloc

        st = benchmark_superposition(0.01)
        observables = [torsional_potential(2), quartic_momentum(2)]
        peaks = []
        for n in (4 * _BLOCK_POINTS, 64 * _BLOCK_POINTS):
            tracemalloc.start()
            try:
                tensor_grid_integrals(st, observables, METHODS, points_per_axis=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one array of points_per_axis doubles would add 480 KiB at the larger grid
        assert peaks[1] - peaks[0] < 64 * 1024
