import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from phasespec import CrossTermPolicy, GaussianState, PhasePoint, state_norm2
from phasespec import densities as D
from phasespec.quadrature import tensor_grid_integrals
from phasespec.observables import weyl_expectation_gaussian, observable_from_polynomial_records
from phasespec.experiments import benchmark_superposition, fit_loglog_slope

from _oracles import (
    _pair_geometry,
    branch_mixture_mu,
    fd_laplacian,
    hermite_window_1d,
    mu_single_branch_many,
    spectrogram_convolution_quad,
    superposition_1d,
    wavepacket_1d,
    wigner_transform_quad,
)


def random_points_near(state, n, rng, spread=3.0):
    """Evaluation points scattered around the branch hull."""
    K = state.n_branches
    idx = rng.integers(0, K, size=n)
    width = spread * np.sqrt(state.h)
    Q = state.centers_q[idx] + width * rng.normal(size=(n, state.dim))
    P = state.centers_p[idx] + width * rng.normal(size=(n, state.dim))
    return Q, P


class TestWigner:
    def test_center_value(self):
        st = GaussianState.wavepacket(0.1, [0.2], [0.5])
        assert D.wigner_many(st, [0.2], [0.5])[0] == pytest.approx(
            1.0 / (np.pi * 0.1), rel=1e-14
        )

    def test_exponential_decay(self):
        h = 0.1
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        # |w - z|^2 = h gives e^{-1} times the peak
        w = ([np.sqrt(h)], [0.0])
        assert D.wigner_many(st, *w)[0] == pytest.approx(np.exp(-1.0) / (np.pi * h), rel=1e-13)

    def test_two_equal_branches_quadruple(self):
        z = PhasePoint([0.3, -0.2], [0.1, 0.4])
        st1 = GaussianState.from_branches(0.05, [(1.0, z)])
        st2 = GaussianState.from_branches(0.05, [(1.0, z), (1.0, z)])
        rng = np.random.default_rng(5)
        Q, P = random_points_near(st1, 50, rng)
        assert np.allclose(
            D.wigner_many(st2, Q, P), 4.0 * D.wigner_many(st1, Q, P), rtol=1e-12
        )

    def test_far_apart_pair_stays_finite(self):
        # The pair overlap e^{-|z_k - z_l|^2/(4h)} = e^{-4000} underflows while
        # e^{-s2/h} at the midpoint would be e^{+4000}; their product is the
        # interference peak 2 (pi h)^-1.  mu there is of order e^{-2000}.
        h = 1e-3
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-2.0], [0.0])), (1.0, PhasePoint([2.0], [0.0]))]
        )
        mid = ([0.0], [0.0])
        assert D.wigner_many(st, *mid)[0] == pytest.approx(2.0 / (np.pi * h), rel=1e-11)
        assert D.mu_many(st, *mid)[0] == 0.0

    def test_superposition_vs_transform_quadrature(self):
        # complex coefficients exercise the full cross-term phase
        h = 0.1
        c1, c2 = 1.0 + 0.5j, -0.3 + 1.0j
        z1, z2 = (0.4, -0.3), (-0.6, 0.8)
        st = GaussianState.from_branches(
            h, [(c1, PhasePoint([z1[0]], [z1[1]])), (c2, PhasePoint([z2[0]], [z2[1]]))]
        )
        psi = superposition_1d([(c1, *z1), (c2, *z2)], h)
        for q, p in [(0.0, 0.0), (-0.1, 0.25), (0.5, -0.5), (-0.35, 0.17)]:
            oracle = wigner_transform_quad(psi, q, p, h)
            assert D.wigner_many(st, [q], [p])[0] == pytest.approx(oracle, abs=1e-10)


class TestHusimi:
    def test_center_value(self):
        st = GaussianState.wavepacket(0.1, [0.0], [0.0])
        assert D.husimi_many(st, [0.0], [0.0])[0] == pytest.approx(
            1.0 / (2 * np.pi * 0.1), rel=1e-14
        )

    def test_single_branch_closed_form(self):
        h = 0.08
        st = GaussianState.wavepacket(h, [0.3, -0.1], [0.2, 0.6])
        rng = np.random.default_rng(2)
        Q, P = random_points_near(st, 200, rng)
        dq = Q - st.centers_q[0]
        dp = P - st.centers_p[0]
        r2 = np.sum(dq * dq + dp * dp, axis=1)
        expected = (2 * np.pi * h) ** -2 * np.exp(-r2 / (2 * h))
        assert np.allclose(D.husimi_many(st, Q, P), expected, rtol=1e-12)

    def test_convolution_definition(self):
        # the overlap-form constant against the literal Wigner convolution
        h = 0.1
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([0.0], [0.0])), (0.8j, PhasePoint([0.5], [0.6]))]
        )
        psi = superposition_1d([(1.0, 0.0, 0.0), (0.8j, 0.5, 0.6)], h)
        window = wavepacket_1d(0.0, 0.0, h)
        for q, p in [(0.25, 0.3), (0.0, 0.0)]:
            oracle = spectrogram_convolution_quad(psi, window, q, p, h)
            assert D.husimi_many(st, [q], [p])[0] == pytest.approx(oracle, rel=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        st = benchmark_superposition(0.05)
        Q, P = random_points_near(st, 5000, rng, spread=6.0)
        assert np.all(D.husimi_many(st, Q, P) >= 0.0)


class TestHermiteSpectrogram:
    def test_zero_at_center(self):
        st = GaussianState.wavepacket(0.1, [0.4], [-0.2])
        assert D.hermite_spectrogram_many(st, 1, [0.4], [-0.2])[0] == 0.0

    def test_stated_value(self):
        h = 0.1
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        # |w - z|^2 = |w_1 - z_1|^2 = 0.2 = 2h
        w = ([np.sqrt(0.2)], [0.0])
        expected = (2 * np.pi * h) ** -1 * 1.0 * np.exp(-1.0)
        assert D.hermite_spectrogram_many(st, 1, *w)[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.5855, abs=5e-5)

    def test_single_branch_closed_form(self):
        h = 0.06
        st = GaussianState.wavepacket(h, [0.1, 0.7], [-0.3, 0.2])
        rng = np.random.default_rng(12)
        Q, P = random_points_near(st, 100, rng)
        for j in (1, 2):
            dq = Q - st.centers_q[0]
            dp = P - st.centers_p[0]
            r2 = np.sum(dq * dq + dp * dp, axis=1)
            rj2 = dq[:, j - 1] ** 2 + dp[:, j - 1] ** 2
            expected = (2 * np.pi * h) ** -2 * (rj2 / (2 * h)) * np.exp(-r2 / (2 * h))
            assert np.allclose(D.hermite_spectrogram_many(st, j, Q, P), expected, rtol=1e-12)

    def test_convolution_definition(self):
        h = 0.1
        st = GaussianState.wavepacket(h, [0.3], [-0.2])
        psi = wavepacket_1d(0.3, -0.2, h)
        phi = hermite_window_1d(h)
        oracle = spectrogram_convolution_quad(psi, phi, 0.5, 0.1, h)
        assert D.hermite_spectrogram_many(st, 1, [0.5], [0.1])[0] == pytest.approx(oracle, rel=1e-8)

    def test_phase_space_integral_is_one(self):
        # normalized single branch, d = 1: S_1 integrates to 1
        st = GaussianState.wavepacket(0.09, [0.2], [-0.4])
        _, total = tensor_grid_integrals(st, None, "hermite-mixture", points_per_axis=400)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_plane_index_range(self):
        st = GaussianState.wavepacket(0.1, [0.0, 0.0], [0.0, 0.0])
        w = ([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            D.hermite_spectrogram_many(st, 0, *w)
        with pytest.raises(ValueError):
            D.hermite_spectrogram_many(st, 3, *w)

    def test_nonnegative(self):
        rng = np.random.default_rng(40)
        st = benchmark_superposition(0.08)
        Q, P = random_points_near(st, 5000, rng, spread=6.0)
        for j in (1, 2):
            assert np.all(D.hermite_spectrogram_many(st, j, Q, P) >= 0.0)


class TestMu:
    def test_center_value(self):
        for h in (0.02, 0.1, 0.5):
            st = GaussianState.wavepacket(h, [0.0], [0.0])
            assert D.mu_many(st, [0.0], [0.0])[0] == pytest.approx(
                1.5 / (2 * np.pi * h), rel=1e-13
            )

    def test_root_radius(self):
        h, d = 0.07, 2
        st = GaussianState.wavepacket(h, [0.0, 0.0], [0.0, 0.0])
        r = 2.0 * np.sqrt(h * (1 + d / 2.0))
        assert abs(D.mu_many(st, [r, 0.0], [0.0, 0.0])[0]) < 1e-13 * (2 * np.pi * h) ** -d

    def test_combination_equals_single_branch_closed_form(self):
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            h = float(rng.uniform(0.02, 0.2))
            st = GaussianState.wavepacket(h, rng.normal(size=d), rng.normal(size=d))
            Q, P = random_points_near(st, 300, rng)
            a = D.mu_combination_many(st, Q, P)
            b = mu_single_branch_many(st.centers_q[0], st.centers_p[0], h, Q, P)
            envelope = (2 * np.pi * h) ** -d * np.exp(
                -(np.sum((Q - st.centers_q[0]) ** 2 + (P - st.centers_p[0]) ** 2, axis=1))
                / (2 * h)
            )
            assert np.all(np.abs(a - b) <= 1e-12 * (np.abs(b) + envelope))

    def test_pairwise_equals_combination_at_midpoint(self):
        # benchmark superposition, at the midpoint of the centers where the
        # interference term is largest
        st = benchmark_superposition(0.1)
        mid_q = st.centers_q.mean(axis=0)
        mid_p = st.centers_p.mean(axis=0)
        a = D.mu_combination_many(st, mid_q[None, :], mid_p[None, :])[0]
        c = D.mu_many(st, mid_q[None, :], mid_p[None, :])[0]
        assert c == pytest.approx(a, rel=1e-10)

    def test_pairwise_equals_combination_on_grids(self):
        # d = 1 and d = 2, several h, complex coefficients
        rng = np.random.default_rng(33)
        for d in (1, 2):
            for h in (0.02, 0.1, 0.3):
                st = GaussianState.from_branches(
                    h,
                    [
                        (1.0 + 0.4j, PhasePoint(rng.normal(size=d), rng.normal(size=d))),
                        (0.6 - 0.8j, PhasePoint(rng.normal(size=d), rng.normal(size=d))),
                        (0.3 + 0.1j, PhasePoint(rng.normal(size=d), rng.normal(size=d))),
                    ],
                )
                Q, P = random_points_near(st, 400, rng, spread=4.0)
                a = D.mu_combination_many(st, Q, P)
                c = D.mu_many(st, Q, P)
                scale = np.max(np.abs(a))
                assert np.max(np.abs(a - c)) <= 1e-10 * scale

    def test_underflowing_cross_term_leaves_branch_mixture(self):
        st = benchmark_superposition(0.001)  # damping ~ e^-906: the cross term underflows
        rng = np.random.default_rng(8)
        Q, P = random_points_near(st, 100, rng)
        assert np.allclose(D.mu_many(st, Q, P), branch_mixture_mu(st, Q, P), rtol=1e-13, atol=1e-300)

    def test_cross_term_damping_bound(self):
        # |mu - branch mixture| <= damping * max |interference bracket|, the
        # bias of the neglect policy's sampler
        h = 0.1
        st = benchmark_superposition(h)
        rng = np.random.default_rng(14)
        Q, P = random_points_near(st, 4000, rng, spread=5.0)
        exact = D.mu_many(st, Q, P)
        neglect = branch_mixture_mu(st, Q, P)
        damping = CrossTermPolicy().pair_damping(st)[0, 1]
        assert 1e-6 < damping < 1e-3
        # independent bound from the interference bracket magnitude
        OkOl, B = _pair_geometry(st, 0, 1, Q, P)
        envelope = np.abs(OkOl) / damping  # e^{-|w - midpoint|^2 / (2h)}
        bracket_max = np.max(2.0 * (2 * np.pi * h) ** -st.dim * envelope * np.abs(B))
        assert np.max(np.abs(exact - neglect)) <= damping * bracket_max * (1 + 1e-12)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CrossTermPolicy(mode="sometimes")

    def test_single_branch_damping_builds_no_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a single branch needs no overlap table")

        monkeypatch.setattr(D, "_overlap_exponents", no_table)
        st = GaussianState.wavepacket(0.1, np.zeros(128), np.zeros(128))
        assert CrossTermPolicy().max_offdiagonal_damping(st) == 0.0
        assert not CrossTermPolicy(mode="neglect").weights_needed(st)


class TestLaplacianHusimi:
    def test_center_value(self):
        h = 0.1
        st = GaussianState.wavepacket(h, [0.0], [0.0])
        expected = -(2.0 / h) / (2 * np.pi * h)
        assert D.laplacian_husimi_many(st, [0.0], [0.0])[0] == pytest.approx(expected, rel=1e-13)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 0.1
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([0.0], [0.0])), (0.5j, PhasePoint([0.6], [-0.4]))]
        )
        for _ in range(5):
            w = rng.normal(size=2) * 0.4
            oracle = fd_laplacian(lambda x: D.husimi_many(st, x[:1], x[1:])[0], w, step=1e-3)
            val = D.laplacian_husimi_many(st, w[:1], w[1:])[0]
            assert val == pytest.approx(oracle, rel=1e-5)

    def test_matches_finite_differences_d2(self):
        rng = np.random.default_rng(27)
        h = 0.1
        st = GaussianState.wavepacket(h, [0.1, -0.2], [0.3, 0.0])
        w = rng.normal(size=4) * 0.3
        oracle = fd_laplacian(lambda x: D.husimi_many(st, x[:2], x[2:])[0], w, step=1e-3)
        val = D.laplacian_husimi_many(st, w[:2], w[2:])[0]
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_integral_vanishes(self):
        # divergence theorem: integral of Lap H over phase space is 0
        h = 0.08
        st = GaussianState.wavepacket(h, [0.2], [-0.1])
        pad = 12.0 * np.sqrt(h)
        q = np.linspace(0.2 - pad, 0.2 + pad, 500)
        p = np.linspace(-0.1 - pad, -0.1 + pad, 500)
        QQ, PP = np.meshgrid(q, p, indexing="ij")
        vals = D.laplacian_husimi_many(st, QQ.ravel()[:, None], PP.ravel()[:, None])
        integral = vals.sum() * (q[1] - q[0]) * (p[1] - p[0])
        assert abs(integral) < 1e-8


class TestNormalization:
    def test_husimi_and_hermite_mixture_integrate_to_norm2(self):
        # d = 1 superposition with visible interference
        h = 0.05
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.3], [0.2])), (0.7 + 0.2j, PhasePoint([0.4], [-0.1]))]
        )
        norm = state_norm2(st)
        for method in ("husimi", "hermite-mixture", "mu"):
            _, total = tensor_grid_integrals(st, None, method, points_per_axis=400)
            assert total == pytest.approx(norm, abs=1e-6)


class TestExpansionOrder:
    def test_quartic_gap_scales_as_h_squared(self):
        # For a degree-4 symbol, E_mu[A] - E_W[A] = -(h^2/32) Lap^2 A exactly,
        # and mu = H - (h/4) Lap H pointwise, so the gap of the corrected
        # Husimi expansion must scale as h^2.
        A = observable_from_polynomial_records([[1.0, [0, 4]], [0.5, [3, 0]], [1.0, [1, 1]]], 1)
        gaps = []
        h_list = (0.1, 0.05, 0.025, 0.0125)
        for h in h_list:
            st = GaussianState.wavepacket(h, [0.3], [0.5])
            est, den = tensor_grid_integrals(st, A, "mu", points_per_axis=240)
            exact = weyl_expectation_gaussian(A, st)
            gaps.append(abs(est / den - exact))
        slope = fit_loglog_slope(h_list, gaps)
        assert 1.7 <= slope <= 2.3


class TestPlaneKernel:
    """Per-plane amplitude identities above d = 3, on a K = 3 superposition."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(11)
        d = 5
        branches = [
            (complex(*rng.normal(size=2)), PhasePoint(0.3 * rng.normal(size=d), 0.3 * rng.normal(size=d)))
            for _ in range(3)
        ]
        st = GaussianState.from_branches(0.2, branches)
        Q, P = random_points_near(st, 200, rng)
        return st, Q, P

    @staticmethod
    def assert_close(actual, expected):
        # relative to the array scale: mu and Lap H change sign
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)

    def test_mixture_is_mean_of_spectrograms(self, case):
        st, Q, P = case
        planes = [D.hermite_spectrogram_many(st, j, Q, P) for j in range(1, st.dim + 1)]
        self.assert_close(D.hermite_mixture_many(st, Q, P), np.mean(planes, axis=0))

    def test_mu_combination_from_husimi_and_mixture(self, case):
        st, Q, P = case
        d = st.dim
        combined = (1.0 + d / 2.0) * D.husimi_many(st, Q, P) - (d / 2.0) * D.hermite_mixture_many(
            st, Q, P
        )
        self.assert_close(D.mu_combination_many(st, Q, P), combined)
        self.assert_close(D.mu_many(st, Q, P), combined)

    def test_laplacian_from_spectrograms(self, case):
        st, Q, P = case
        d, h = st.dim, st.h
        s_sum = sum(D.hermite_spectrogram_many(st, j, Q, P) for j in range(1, d + 1))
        expected = (2.0 / h) * s_sum - (2.0 * d / h) * D.husimi_many(st, Q, P)
        self.assert_close(D.laplacian_husimi_many(st, Q, P), expected)


class TestDensityIdentityProperty:
    """mu = H - (h/4) Lap H over random superpositions and points."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=strategies.integers(1, 3),
        d=strategies.integers(1, 3),
        h=strategies.floats(1e-3, 0.3),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_mu_combination_is_husimi_minus_laplacian(self, K, d, h, seed):
        rng = np.random.default_rng(seed)
        branches = [
            (
                complex(*rng.uniform(-1.0, 1.0, size=2)),
                PhasePoint(rng.uniform(-1.0, 1.0, size=d), rng.uniform(-1.0, 1.0, size=d)),
            )
            for _ in range(K)
        ]
        try:
            state = GaussianState.from_branches(h, branches)
        except ValueError:
            assume(False)  # a zero-norm draw is not a state
        Q, P = random_points_near(state, 50, rng)
        expected = D.husimi_many(state, Q, P) - (h / 4.0) * D.laplacian_husimi_many(state, Q, P)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(
            D.mu_combination_many(state, Q, P), expected, rtol=1e-12, atol=1e-12 * scale
        )


# Every evaluator in 2048-row blocks against the same call in one block (the
# block size raised past m), bit for bit.  Run with BLAS pinned to one
# thread, as the benchmark runs: a threaded BLAS splits the columns of
# c @ O by the call's own size, so a block's last bits may differ from
# those of a whole-array call.
_BLOCKING_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    from phasespec import GaussianState, core
    from phasespec import densities as D

    def evaluate(st, j, Q, P):
        return [
            D.husimi_many(st, Q, P), D.hermite_spectrogram_many(st, j, Q, P),
            D.hermite_mixture_many(st, Q, P), D.mu_combination_many(st, Q, P),
            D.laplacian_husimi_many(st, Q, P), D.mu_many(st, Q, P), D.wigner_many(st, Q, P),
        ]

    rows = core._BLOCK_ROWS
    rng = np.random.default_rng(2048)
    report = {"checked": 0, "mismatches": [], "empty": [], "one_point": []}
    for _ in range(5):
        K, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        st = GaussianState(
            float(rng.uniform(0.02, 0.5)), rng.normal(size=K) + 1j * rng.normal(size=K),
            rng.normal(size=(K, d)), rng.normal(size=(K, d)),
        )
        j = int(rng.integers(1, d + 1))
        # 4097 = 2 * 2048 + 1 folds its lone last row into the block before
        for m in (0, 1, 2, 2047, 2048, 2049, 4097, 2 * 2048 + 333):
            Q, P = rng.normal(size=(m, d)), rng.normal(size=(m, d))
            blocked = evaluate(st, j, Q, P)
            core._BLOCK_ROWS = max(m, 1)
            whole = evaluate(st, j, Q, P)
            core._BLOCK_ROWS = rows
            for i, (a, b) in enumerate(zip(blocked, whole)):
                report["checked"] += 1
                if a.shape != (m,) or a.tobytes() != b.tobytes():
                    report["mismatches"].append([K, d, m, i])
        report["empty"].append([list(r.shape) for r in evaluate(st, j, np.empty((0, d)), np.empty((0, d)))])
        report["one_point"].append([list(r.shape) for r in evaluate(st, j, np.zeros(d), np.ones(d))])
    print(json.dumps(report))
    """
)


def test_blocking_keeps_every_double():
    src = os.path.dirname(os.path.dirname(os.path.abspath(D.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _BLOCKING_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["checked"] == 5 * 8 * 7
    assert report["mismatches"] == []
    assert report["empty"] == [[[0]] * 7] * 5
    assert report["one_point"] == [[[1]] * 7] * 5
