import numpy as np
import pytest

from phasespec import GaussianState, PhasePoint, state_norm2
from phasespec.core import _overlap_factors

from _oracles import overlap_quad


def overlap(z1, z2, h):
    """<g_z1, g_z2> from the closed form every density evaluates,
    ``core._overlap_factors`` (O[i, k] = <g_{w_i}, g_{z_k}>)."""
    state = GaussianState.wavepacket(h, z2.q, z2.p)
    return complex(_overlap_factors(state, z1.q[None, :], z1.p[None, :])[0, 0])


class TestPhasePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePoint([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            PhasePoint([np.nan], [0.0])


class TestGaussianOverlap:
    def test_self_overlap_is_one(self):
        z = PhasePoint([0.4, -1.0], [0.2, 0.9])
        assert overlap(z, z, 0.05) == pytest.approx(1.0 + 0.0j, abs=0)

    def test_modulus_formula(self):
        val = overlap(PhasePoint([0.0], [0.0]), PhasePoint([1.0], [0.0]), 0.1)
        assert abs(val) == pytest.approx(np.exp(-2.5), rel=1e-14)

    def test_full_complex_value_vs_quadrature(self):
        # stated point plus a few generic ones, against the position-space
        # integral oracle
        cases = [((0.0, 0.0), (1.0, 1.0), 0.1)]
        rng = np.random.default_rng(7)
        for _ in range(5):
            cases.append(
                (tuple(rng.normal(size=2)), tuple(rng.normal(size=2)), float(rng.uniform(0.03, 0.2)))
            )
        for z1, z2, h in cases:
            closed = overlap(PhasePoint([z1[0]], [z1[1]]), PhasePoint([z2[0]], [z2[1]]), h)
            oracle = overlap_quad(z1, z2, h)
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_d3_overlap_is_product_of_plane_quadratures(self):
        # the symplectic phase sums over the planes: in d = 3 the overlap is
        # the product of three one-plane position-space integrals
        rng = np.random.default_rng(29)
        h = 0.12
        z1 = PhasePoint(rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5)
        z2 = PhasePoint(rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5)
        oracle = np.prod(
            [overlap_quad((z1.q[j], z1.p[j]), (z2.q[j], z2.p[j]), h) for j in range(3)]
        )
        assert overlap(z1, z2, h) == pytest.approx(oracle, abs=1e-10)

    def test_conjugate_symmetry_and_modulus_property(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            z1 = PhasePoint(rng.normal(size=d), rng.normal(size=d))
            z2 = PhasePoint(rng.normal(size=d), rng.normal(size=d))
            h = float(rng.uniform(0.01, 0.3))
            o12 = overlap(z1, z2, h)
            o21 = overlap(z2, z1, h)
            assert o12 == pytest.approx(np.conj(o21), rel=1e-12, abs=1e-15)
            dist2 = np.sum((z1.q - z2.q) ** 2 + (z1.p - z2.p) ** 2)
            assert abs(o12) == pytest.approx(np.exp(-dist2 / (4 * h)), rel=1e-12, abs=1e-300)


class TestStateNorm2:
    def test_single_branch(self):
        st = GaussianState.wavepacket(0.1, [0.3], [0.4])
        assert state_norm2(st) == pytest.approx(1.0, abs=0)

    def test_two_equal_branches(self):
        z = PhasePoint([0.1, 0.2], [0.3, 0.4])
        st = GaussianState.from_branches(0.05, [(1.0, z), (1.0, z)])
        assert state_norm2(st) == pytest.approx(4.0, rel=1e-14)

    def test_benchmark_centers_nearly_orthogonal(self):
        z1 = PhasePoint([-1.0, 1.0], [1.0, 1.0])
        z2 = PhasePoint([0.0, 1.0], [-1.0, -0.5])
        st = GaussianState.from_branches(0.01, [(1.0, z1), (1.0, z2)])
        o12 = overlap(z1, z2, 0.01)
        expected = 2.0 + 2.0 * o12.real
        assert abs(o12) < np.exp(-181)
        assert state_norm2(st) == pytest.approx(expected, rel=1e-14)
        assert state_norm2(st) == pytest.approx(2.0, rel=1e-12)

    def test_branch_permutation_invariance(self):
        rng = np.random.default_rng(23)
        branches = [
            (complex(rng.normal(), rng.normal()), PhasePoint(rng.normal(size=2), rng.normal(size=2)))
            for _ in range(4)
        ]
        st = GaussianState.from_branches(0.07, branches)
        for _ in range(5):
            perm = rng.permutation(4)
            st_p = GaussianState.from_branches(0.07, [branches[i] for i in perm])
            assert state_norm2(st_p) == pytest.approx(state_norm2(st), rel=1e-13)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            GaussianState.from_branches(0.1, [])
        with pytest.raises(ValueError):
            GaussianState.from_branches(
                0.1, [(1.0, PhasePoint([0.0], [0.0])), (1.0, PhasePoint([0.0, 1.0], [0.0, 0.0]))]
            )
        with pytest.raises(ValueError):
            GaussianState.from_branches(-0.1, [(1.0, PhasePoint([0.0], [0.0]))])
        # destructive interference of identical branches: zero norm
        z = PhasePoint([0.0], [0.0])
        with pytest.raises(ValueError):
            GaussianState.from_branches(0.1, [(1.0, z), (-1.0, z)])
