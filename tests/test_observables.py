import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from phasespec import (
    GaussianState,
    HenonHeilesSpec,
    Observable,
    PhasePoint,
    PolynomialSymbol,
    henon_heiles_energy,
    henon_heiles_total,
    quartic_momentum,
    reference_expectation_grid,
    state_norm2,
    torsional_potential,
    weyl_expectation_gaussian,
)
from phasespec.exceptions import ResourceGuardError
from _oracles import marginal_reference_slabs
from phasespec.observables import (
    momentum_space_state,
    observable_from_label,
    observable_from_polynomial_records,
    position_wavefunction,
)


def random_polynomial(rng, d, max_degree=3, n_terms=5):
    terms = []
    for _ in range(n_terms):
        exps = [0] * (2 * d)
        degree = int(rng.integers(0, max_degree + 1))
        for _ in range(degree):
            exps[int(rng.integers(0, 2 * d))] += 1
        coeff = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
        terms.append((coeff, tuple(exps)))
    return PolynomialSymbol(tuple(terms))


class TestPolynomialSymbol:
    def test_canonicalization_merges_and_drops(self):
        poly = PolynomialSymbol(((1.0, (1, 0)), (2.0, (1, 0)), (3.0, (0, 2)), (-3.0, (0, 2))))
        assert poly.terms == ((3.0, (1, 0)),)

    def test_degree_and_depends(self):
        poly = PolynomialSymbol(((1.0, (2, 0, 1, 0)), (0.5, (0, 0, 0, 3))))
        assert poly.degree() == 3
        assert poly.depends_on() == "both"
        assert PolynomialSymbol(((1.0, (2, 0, 0, 0)),)).depends_on() == "q"
        assert PolynomialSymbol(((1.0, (0, 0, 0, 4)),)).depends_on() == "p"
        assert PolynomialSymbol(((1.0, (0, 0)),)).depends_on() == "const"

    def test_addition(self):
        a = PolynomialSymbol(((1.0, (1, 0)),))
        b = PolynomialSymbol(((2.0, (1, 0)), (1.0, (0, 1))))
        # canonical order sorts by exponent tuple
        assert (a + b).terms == ((1.0, (0, 1)), (3.0, (1, 0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialSymbol(((1.0, (-1, 0)),))
        with pytest.raises(ValueError):
            PolynomialSymbol(((1.0, (1, 0, 0)),))  # odd variable count


class TestNamedObservables:
    def test_torsional_values(self):
        A = torsional_potential(2)
        assert A(PhasePoint([0.0, 0.0], [0.0, 0.0])) == pytest.approx(0.0, abs=0)
        assert A(PhasePoint([np.pi, np.pi], [0.0, 0.0])) == pytest.approx(4.0)
        assert A(PhasePoint([np.pi / 2, 0.0], [1.0, 2.0])) == pytest.approx(1.0)
        assert A.polynomial is None
        with pytest.raises(ValueError):
            torsional_potential(1)

    def test_torsional_ignores_extra_planes(self):
        A = torsional_potential(3)
        assert A(PhasePoint([np.pi, np.pi, 1.7], [0.0, 0.0, 0.3])) == pytest.approx(4.0)

    def test_quartic_values(self):
        A = quartic_momentum(2)
        assert A(PhasePoint([1.0, 2.0], [0.0, 0.0])) == 0.0
        assert A(PhasePoint([0.0, 0.0], [1.0, 1.0])) == pytest.approx(4.0)
        assert A(PhasePoint([0.0, 0.0], [3.0, 4.0])) == pytest.approx(625.0)
        assert A.polynomial.degree() == 4

    def test_henon_heiles_values(self):
        spec = HenonHeilesSpec(d=2)
        kinetic, potential = henon_heiles_energy(spec)
        assert kinetic(PhasePoint([0.0, 0.0], [1.0, 0.0])) == pytest.approx(0.5)
        assert potential(PhasePoint([0.0, 0.0], [0.0, 0.0])) == 0.0
        q = 0.3645
        expected = q**2 + 1.8436 * (q**2 * q - q**3 / 3.0)
        assert potential(PhasePoint([q, q], [0.0, 0.0])) == pytest.approx(expected, rel=1e-14)
        assert kinetic.polynomial.degree() == 2
        assert potential.polynomial.degree() == 3
        with pytest.raises(ValueError):
            HenonHeilesSpec(d=1)

    def test_evaluator_matches_polynomial(self):
        rng = np.random.default_rng(31)
        for build in (
            lambda: quartic_momentum(3),
            lambda: henon_heiles_energy(HenonHeilesSpec(d=4))[0],
            lambda: henon_heiles_energy(HenonHeilesSpec(d=4))[1],
            lambda: henon_heiles_total(HenonHeilesSpec(d=3)),
        ):
            A = build()
            d = A.polynomial.dim
            Q = rng.normal(size=(100, d))
            P = rng.normal(size=(100, d))
            assert np.allclose(A.evaluate(Q, P), A.polynomial.evaluate(Q, P), rtol=1e-12)

    def test_label_registry(self):
        for label in ("torsional", "quartic-momentum", "hh-kinetic", "hh-potential", "hh-total"):
            assert observable_from_label(label, 2).label == label
        with pytest.raises(ValueError, match="torsional"):
            observable_from_label("no-such-thing", 2)

    def test_inline_polynomial_records(self):
        A = observable_from_polynomial_records([[2.0, [1, 0, 0, 0]], [1.0, [0, 0, 0, 2]]], 2)
        assert A(PhasePoint([3.0, 0.0], [0.0, 5.0])) == pytest.approx(31.0)
        with pytest.raises(ValueError):
            observable_from_polynomial_records([[1.0, [1, 0]]], 2)


class TestWeylExpectation:
    def test_first_moment(self):
        st = GaussianState.wavepacket(0.0037, [0.3645, 0.1], [0.7, -0.2])
        A = observable_from_polynomial_records([[1.0, [1, 0, 0, 0]]], 2)
        assert weyl_expectation_gaussian(A, st) == pytest.approx(0.3645, abs=0)

    def test_second_moment(self):
        h = 0.0037
        st = GaussianState.wavepacket(h, [0.3645], [0.0])
        A = observable_from_polynomial_records([[1.0, [2, 0]]], 1)
        assert weyl_expectation_gaussian(A, st) == pytest.approx(0.3645**2 + 0.00185, rel=1e-14)

    def test_monte_carlo_oracle_henon_heiles(self):
        # independent MC oracle: the wavepacket Wigner function is an exact
        # Gaussian, sampleable with numpy alone
        spec = HenonHeilesSpec(d=2)
        st = spec.benchmark_state()
        A = henon_heiles_total(spec)
        exact = weyl_expectation_gaussian(A, st)
        rng = np.random.default_rng(1234)
        n = 1_000_000
        sigma = np.sqrt(spec.h / 2.0)
        Q = st.centers_q[0] + sigma * rng.standard_normal((n, 2))
        P = st.centers_p[0] + sigma * rng.standard_normal((n, 2))
        vals = A.evaluate(Q, P)
        mc = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(exact - mc) < 5 * se

    def test_monte_carlo_oracle_random_polynomials(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            d = int(rng.integers(1, 3))
            h = float(rng.uniform(0.02, 0.2))
            poly = random_polynomial(rng, d)
            st = GaussianState.wavepacket(h, rng.normal(size=d), rng.normal(size=d))
            exact = weyl_expectation_gaussian(poly, st)
            n = 400_000
            sigma = np.sqrt(h / 2.0)
            Q = st.centers_q[0] + sigma * rng.standard_normal((n, d))
            P = st.centers_p[0] + sigma * rng.standard_normal((n, d))
            vals = poly.evaluate(Q, P)
            se = vals.std(ddof=1) / np.sqrt(n)
            assert abs(exact - vals.mean()) < 5 * se + 1e-12

    def test_linearity_and_reordering(self):
        rng = np.random.default_rng(15)
        st = GaussianState.wavepacket(0.05, [0.2, -0.1], [0.3, 0.4])
        a = random_polynomial(rng, 2)
        b = random_polynomial(rng, 2)
        lhs = weyl_expectation_gaussian(a + b, st)
        rhs = weyl_expectation_gaussian(a, st) + weyl_expectation_gaussian(b, st)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        shuffled = PolynomialSymbol(tuple(reversed(a.terms)))
        assert weyl_expectation_gaussian(shuffled, st) == weyl_expectation_gaussian(a, st)

    def test_non_polynomial_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            weyl_expectation_gaussian(torsional_potential(2), st)


class TestMomentumTransform:
    def test_fft_oracle(self):
        # psi_hat(xi) = (2 pi h)^{-1/2} integral psi(x) e^{-i xi x / h} dx,
        # approximated by a Riemann sum on a fine grid, against the
        # closed-form momentum-space wavepacket
        h = 0.05
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([0.4], [-0.6])), (0.5 - 0.3j, PhasePoint([-0.2], [0.3]))]
        )
        mst = momentum_space_state(st)
        x = np.linspace(-12.0, 12.0, 2**16)
        dx = x[1] - x[0]
        psi = position_wavefunction(st, x[:, None])
        for xi in (-0.6, 0.0, 0.45):
            direct = (2 * np.pi * h) ** -0.5 * np.sum(psi * np.exp(-1j * xi * x / h)) * dx
            closed = position_wavefunction(mst, np.array([[xi]]))[0]
            assert closed == pytest.approx(direct, abs=1e-8)

    def test_momentum_density_center(self):
        st = GaussianState.wavepacket(0.1, [0.7], [1.3])
        mst = momentum_space_state(st)
        # |psi_hat|^2 peaks at p with the position-density peak height
        val = abs(position_wavefunction(mst, np.array([[1.3]]))[0]) ** 2
        assert val == pytest.approx((np.pi * 0.1) ** -0.5, rel=1e-12)


class TestReferenceGrid:
    def test_constant_gives_norm(self):
        h = 0.04
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.3, 0.1], [0.2, 0.0])), (0.8, PhasePoint([0.5, -0.2], [-0.1, 0.3]))]
        )
        one = observable_from_polynomial_records([[1.0, [0, 0, 0, 0]]], 2)
        raw = reference_expectation_grid(st, one, "position", resolution=1024, normalized=False)
        assert raw == pytest.approx(state_norm2(st), abs=1e-8)
        raw_p = reference_expectation_grid(st, one, "momentum", resolution=1024, normalized=False)
        assert raw_p == pytest.approx(state_norm2(st), abs=1e-8)

    def test_torsional_small_h_concentrates(self):
        A = torsional_potential(2)
        st = GaussianState.wavepacket(1e-4, [0.0, 0.0], [0.0, 0.0])
        val = reference_expectation_grid(st, A, "position", resolution=512)
        assert abs(val) < 1e-3

    def test_torsional_closed_form(self):
        # E[cos X] = cos(mean) e^{-var/2} with var = h/2 per coordinate
        rng = np.random.default_rng(9)
        A = torsional_potential(2)
        for _ in range(3):
            h = float(rng.uniform(0.02, 0.2))
            q = rng.normal(size=2)
            st = GaussianState.wavepacket(h, q, rng.normal(size=2))
            expected = 2.0 - np.exp(-h / 4.0) * (np.cos(q[0]) + np.cos(q[1]))
            val = reference_expectation_grid(st, A, "position")
            assert val == pytest.approx(expected, abs=1e-8)

    def test_momentum_side_second_moment(self):
        # momentum-only |p|^2 equals sum p_j^2 + d h / 2 for single branches
        h = 0.08
        p = np.array([0.6, -0.2])
        st = GaussianState.wavepacket(h, [0.1, 0.4], p)
        A = observable_from_polynomial_records(
            [[1.0, [0, 0, 2, 0]], [1.0, [0, 0, 0, 2]]], 2
        )
        val = reference_expectation_grid(st, A, "momentum")
        assert val == pytest.approx(np.sum(p**2) + 2 * h / 2.0, abs=1e-8)

    def test_superposition_interference_matters(self):
        # dropping the interference must change the answer; the exact grid
        # reference picks it up
        h = 0.1
        z1, z2 = PhasePoint([-0.4], [0.5]), PhasePoint([0.4], [-0.2])
        st = GaussianState.from_branches(h, [(1.0, z1), (1.0, z2)])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        val = reference_expectation_grid(st, A, "position")
        # diagonal-only estimate of E[q]
        diag = 0.0
        assert val != pytest.approx(diag, abs=1e-4)

    def test_mixed_observable_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0, 0.0], [0.0, 0.0])
        mixed = observable_from_polynomial_records([[1.0, [1, 0, 1, 0]]], 2)
        with pytest.raises(ValueError):
            reference_expectation_grid(st, mixed, "position")
        A = torsional_potential(2)
        with pytest.raises(ValueError):
            reference_expectation_grid(st, A, "momentum")
        with pytest.raises(ValueError):
            reference_expectation_grid(st, A, "sideways")

    def test_high_dimension_rejected(self):
        st = GaussianState.wavepacket(0.05, np.zeros(4), np.zeros(4))
        one = observable_from_polynomial_records([[1.0, [0] * 8]], 4)
        with pytest.raises(ResourceGuardError):
            reference_expectation_grid(st, one, "position")

    @pytest.mark.parametrize(
        "A",
        [
            observable_from_polynomial_records([[1.0, [0, 0, 2, 0, 0, 0]]], 3),
            observable_from_polynomial_records([[1.0, [2, 0]]], 1),
            torsional_potential(3),
        ],
        ids=["polynomial-d3", "polynomial-d1", "torsional-d3"],
    )
    def test_dimension_mismatch_refused(self, A):
        st = GaussianState.from_branches(
            0.1, [(1.0, PhasePoint([-1.0, 1.0], [1.0, 1.0])), (1.0, PhasePoint([0.0, 1.0], [-1.0, -0.5]))]
        )
        with pytest.raises(ValueError, match="observable and state dimensions differ"):
            reference_expectation_grid(st, A, "position")


class TestReferenceGridOracle:
    """The per-axis Gram assembly equals the literal slab-by-slab trapezoid
    sum over the same marginal grid."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=strategies.integers(1, 3),
        d=strategies.integers(1, 2),
        h=strategies.floats(0.01, 0.3),
        resolution=strategies.integers(16, 256),
        side=strategies.sampled_from(["position", "momentum"]),
        normalized=strategies.booleans(),
        torsional=strategies.booleans(),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_matches_slab_oracle(self, K, d, h, resolution, side, normalized, torsional, seed):
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
        if torsional and d == 2:
            A, side = torsional_potential(2), "position"
        else:
            # one-sided polynomial of degree <= 4 in the variables of ``side``
            offset = 0 if side == "position" else d
            records = []
            for _ in range(int(rng.integers(1, 5))):
                exps = [0] * (2 * d)
                for _ in range(int(rng.integers(0, 5))):
                    exps[offset + int(rng.integers(0, d))] += 1
                records.append([float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])), exps])
            A = observable_from_polynomial_records(records, d)
        expected = marginal_reference_slabs(state, A, side, resolution, normalized)
        # the same sum with |A|, so cancellation between terms cannot hide an error
        magnitude = Observable("abs", lambda Q, P: np.abs(A.evaluate(Q, P)), side=A.depends_on())
        scale = marginal_reference_slabs(state, magnitude, side, resolution, normalized)
        got = reference_expectation_grid(state, A, side, resolution=resolution, normalized=normalized)
        assert abs(got - expected) <= 1e-12 * scale
