import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from phasespec import GaussianState, PhasePoint, state_norm2, weyl_expectation_gaussian
from phasespec.experiments import benchmark_superposition
from phasespec.observables import (
    observable_from_polynomial_records,
    quartic_momentum,
    torsional_potential,
)
from phasespec.quadrature import tensor_grid_expectation, tensor_grid_integrals
from _oracles import direct_grid_integrals, tensor_grid_every_row


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
            out.append(torsional_potential(d))
        # a constant term, a term on the first plane only (None factors on
        # the others) and a random term of degree <= 4
        records = [[2.5, [0] * (2 * d)], [-0.7, [1] + [0] * (d - 1) + [2] + [0] * (d - 1)]]
        exps = [0] * (2 * d)
        for _ in range(int(rng.integers(1, 5))):
            exps[int(rng.integers(0, 2 * d))] += 1
        records.append([float(rng.uniform(-1.5, 1.5)), exps])
        out.append(observable_from_polynomial_records(records, d))
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_equals_single_calls(self, K, d):
        rng = np.random.default_rng(100 * K + d)
        st = random_superposition(rng, K, d, 0.08)
        observables = self.observables(rng, d)
        points = 16 if d == 3 else 40
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
