import numpy as np
import pytest

from phasespec import GaussianState, PhasePoint, state_norm2, weyl_expectation_gaussian
from phasespec.experiments import benchmark_superposition
from phasespec.observables import (
    observable_from_polynomial_records,
    quartic_momentum,
    torsional_potential,
)
from phasespec.quadrature import (
    direct_grid_integrals,
    tensor_grid_expectation,
    tensor_grid_integrals,
)


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

    def test_direct_rejects_high_dimension(self):
        st = GaussianState.wavepacket(0.05, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            direct_grid_integrals(st, None, "mu")


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
        for integrate in (tensor_grid_integrals, direct_grid_integrals):
            with pytest.raises(ValueError, match="at least 2 points"):
                integrate(st, None, "mu", points_per_axis=points)

    def test_unknown_method_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0], [0.0])
        with pytest.raises(ValueError):
            tensor_grid_integrals(st, None, "wigner")
