from functools import reduce
from operator import add

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
    state_norm2,
    torsional_potential,
    weyl_expectation_gaussian,
)
from _oracles import marginal_reference_slabs, term_by_term_evaluate, term_by_term_reference
from phasespec.observables import (
    _cosine_moment,
    observable_from_label,
    observable_from_polynomial_records,
)


def at(A, q, p):
    """A's value at the single phase-space point (q, p)."""
    return float(A.evaluate([q], [p])[0])


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
        assert poly.terms == ((3.0, (1, 0), (0.0, 0.0)),)

    def test_degree(self):
        poly = PolynomialSymbol(((1.0, (2, 0, 1, 0)), (0.5, (0, 0, 0, 3))))
        assert poly.degree() == 3

    def test_addition(self):
        a = PolynomialSymbol(((1.0, (1, 0)),))
        b = PolynomialSymbol(((2.0, (1, 0)), (1.0, (0, 1))))
        # canonical order sorts by exponent tuple
        assert (a + b).terms == ((1.0, (0, 1), (0.0, 0.0)), (3.0, (1, 0), (0.0, 0.0)))

    def test_cosine_terms(self):
        # frequencies are canonicalized to |w|, merged with equal terms, and
        # ordered after the term with the same exponents and no cosine
        poly = PolynomialSymbol(
            ((1.0, (0, 0, 0, 0), (0.0, 2.0, 0.0, 0.0)), (1.0, (0, 0, 0, 0)),
             (0.5, (0, 0, 0, 0), (0.0, -2.0, 0.0, 0.0)), (1.0, (0, 0, 0, 0), (1.0, 0.0, 0.0, 0.0)))
        )
        assert poly.terms == (
            (1.0, (0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0)),
            (1.0, (0, 0, 0, 0), (1.0, 0.0, 0.0, 0.0)),
            (1.5, (0, 0, 0, 0), (0.0, 2.0, 0.0, 0.0)),
        )
        q = np.array([[0.3, -0.7]])
        assert poly.evaluate(q, [[0.1, 0.2]])[0] == pytest.approx(1.0 + np.cos(0.3) + 1.5 * np.cos(1.4), rel=1e-15, abs=0)
        mixed = PolynomialSymbol(((2.0, (1, 0, 0, 3), (0.0, 0.0, 0.0, 0.5)),))
        assert mixed.evaluate(q, [[0.1, 0.2]])[0] == pytest.approx(2.0 * 0.3 * 0.2**3 * np.cos(0.1), rel=1e-15, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialSymbol(((1.0, (-1, 0)),))
        with pytest.raises(ValueError):
            PolynomialSymbol(((1.0, (1, 0, 0)),))  # odd variable count
        with pytest.raises(ValueError, match="frequencies"):
            PolynomialSymbol(((1.0, (1, 0), (1.0,)),))
        with pytest.raises(ValueError, match="frequencies"):
            PolynomialSymbol(((1.0, (1, 0), (np.inf, 0.0)),))
        # a NaN or infinite coefficient is refused, not merged into the sum
        for coeff in (np.nan, np.inf):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                PolynomialSymbol(((coeff, (2, 0)), (1.0, (2, 0))))


@strategies.composite
def raw_terms(draw, d):
    """(coefficient, exponents) records over 2d variables, exponents <= 3,
    with repeated exponent tuples and some terms cancelled by their negation."""
    exps = strategies.tuples(*[strategies.integers(0, 3)] * (2 * d))
    pool = draw(strategies.lists(exps, min_size=1, max_size=4))
    coeff = strategies.one_of(
        strategies.sampled_from([1.0, -1.0, 0.5, 2.0, 0.0]),
        strategies.floats(-2.0, 2.0, allow_nan=False),
    )
    terms = draw(
        strategies.lists(strategies.tuples(coeff, strategies.sampled_from(pool)), min_size=1, max_size=8)
    )
    cancelled = draw(strategies.lists(strategies.sampled_from(terms), max_size=3))
    return draw(strategies.permutations(terms + [(-c, e) for c, e in cancelled]))


def raw_sum(terms, Q, P):
    """sum_t c_t prod_i x_i^e_ti straight from the records, and the same sum
    of absolute values (the rounding scale)."""
    X = np.hstack([Q, P])
    values = np.array([c * np.prod(X ** np.array(e), axis=1) for c, e in terms])
    return values.sum(axis=0), np.abs(values).sum(axis=0)


@strategies.composite
def cosine_symbols(draw, d):
    """Symbols over 2d variables whose terms draw up to three factors
    x_i^e cos(w x_i) from a small pool, so that factors repeat across terms;
    a term with no factor is a constant."""
    factor = strategies.tuples(
        strategies.integers(0, 2 * d - 1),
        strategies.integers(0, 3),
        strategies.one_of(strategies.sampled_from([0.0, 0.5, 1.0, -2.0]), strategies.floats(-3.0, 3.0)),
    )
    pool = draw(strategies.lists(factor, min_size=1, max_size=4))
    terms = []
    for _ in range(draw(strategies.integers(1, 8), label="terms")):
        exps, freqs = [0] * (2 * d), [0.0] * (2 * d)
        for i, e, w in draw(strategies.lists(strategies.sampled_from(pool), max_size=3)):
            exps[i], freqs[i] = e, w
        terms.append((draw(strategies.floats(-2.0, 2.0)), tuple(exps), tuple(freqs)))
    return PolynomialSymbol(tuple(terms))


class TestPolynomialCanonicalProperty:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=strategies.data(), d=strategies.integers(1, 4), seed=strategies.integers(0, 2**32 - 1))
    def test_factor_table_equals_term_by_term(self, data, d, seed):
        # One factor column (one moment) per distinct factor, multiplied into
        # each term, gives the doubles of multiplying each term up on its own
        # variable by variable; only a variable with both a power and a
        # cosine, whose factor is now one column, may move the last digit.
        poly = data.draw(cosine_symbols(d))
        rng = np.random.default_rng(seed)
        Q, P = rng.uniform(-1.5, 1.5, size=(2, 20, d))
        branches = [
            (complex(*rng.uniform(-1.0, 1.0, size=2)), PhasePoint(*rng.uniform(-1.0, 1.0, size=(2, d))))
            for _ in range(2)
        ]
        state = GaussianState.from_branches(0.1, branches)
        # the reference takes each mixed factor's moment in one call either way
        assert weyl_expectation_gaussian(poly, state) == term_by_term_reference(poly, state)
        want = term_by_term_evaluate(poly, Q, P)
        if not any(e and w for _, exps, freqs in poly.terms for e, w in zip(exps, freqs)):
            assert np.array_equal(poly.evaluate(Q, P), want)
        else:
            scale = sum(np.abs(term_by_term_evaluate(PolynomialSymbol((t,)), Q, P)) for t in poly.terms)
            assert np.all(np.abs(poly.evaluate(Q, P) - want) <= 1e-14 * scale)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=strategies.data(), d=strategies.integers(1, 3), seed=strategies.integers(0, 2**32 - 1))
    def test_canonical_form(self, data, d, seed):
        a_terms = data.draw(raw_terms(d))
        b_terms = data.draw(raw_terms(d))
        a, b = PolynomialSymbol(tuple(a_terms)), PolynomialSymbol(tuple(b_terms))
        zero = ((0.0, (0,) * (2 * d), (0.0,) * (2 * d)),)
        for poly in (a, b, a + b):
            exps = [e for _, e, _ in poly.terms]
            assert exps == sorted(set(exps))
            assert poly.terms == zero or all(c != 0.0 for c, _, _ in poly.terms)
            assert PolynomialSymbol(poly.terms) == poly
        rng = np.random.default_rng(seed)
        Q, P = rng.uniform(-1.5, 1.5, size=(2, 20, d))
        scale = 1.0
        for poly, terms in ((a, a_terms), (b, b_terms)):
            want, term_scale = raw_sum(terms, Q, P)
            assert np.all(np.abs(poly.evaluate(Q, P) - want) <= 1e-12 * (1.0 + term_scale))
            scale = scale + term_scale
        summed = a.evaluate(Q, P) + b.evaluate(Q, P)
        assert np.all(np.abs((a + b).evaluate(Q, P) - summed) <= 1e-12 * scale)


class TestSequenceReference:
    """A list or tuple of symbols shares one pass over the branch pairs and
    one table of the distinct moments, yet every value is that of a single
    call, bit for bit."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        data=strategies.data(),
        K=strategies.integers(1, 3),
        d=strategies.integers(1, 3),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_equals_single_calls(self, data, K, d, seed):
        rng = np.random.default_rng(seed)
        branches = [
            (complex(*rng.uniform(-1.0, 1.0, size=2)), PhasePoint(*rng.uniform(-1.0, 1.0, size=(2, d))))
            for _ in range(K)
        ]
        try:
            state = GaussianState.from_branches(float(rng.uniform(0.02, 0.3)), branches)
        except ValueError:
            assume(False)  # a zero-norm draw is not a state
        symbols = data.draw(strategies.lists(cosine_symbols(d), min_size=1, max_size=3))
        # a sum shares every factor of its summands; an observable wraps a symbol
        symbols.append(reduce(add, symbols))
        symbols.append(Observable("wrapped", symbols[0].evaluate, polynomial=symbols[0]))
        singles = [weyl_expectation_gaussian(A, state) for A in symbols]
        assert weyl_expectation_gaussian(symbols, state) == singles
        assert weyl_expectation_gaussian(tuple(reversed(symbols)), state) == singles[::-1]
        assert all(type(v) is float for v in weyl_expectation_gaussian(symbols, state))

    def test_henon_heiles_energies(self):
        spec = HenonHeilesSpec(d=4)
        total = henon_heiles_total(spec)
        energies = (*total.parts, total)
        state = spec.benchmark_state()
        assert weyl_expectation_gaussian(energies, state) == [weyl_expectation_gaussian(A, state) for A in energies]

    def test_refused(self):
        st = GaussianState.wavepacket(0.05, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="at least one observable"):
            weyl_expectation_gaussian([], st)
        with pytest.raises(ValueError, match="at least one observable"):
            weyl_expectation_gaussian((), st)
        with pytest.raises(ValueError, match="observable and state dimensions differ"):
            weyl_expectation_gaussian([quartic_momentum(2), quartic_momentum(3)], st)
        with pytest.raises(ValueError, match="requires an observable with a symbol"):
            weyl_expectation_gaussian([quartic_momentum(2), Observable("abs-q1", lambda Q, P: np.abs(Q[:, 0]))], st)


class TestNamedObservables:
    def test_torsional_values(self):
        A = torsional_potential(2)
        assert at(A, [0.0, 0.0], [0.0, 0.0]) == pytest.approx(0.0, abs=0)
        assert at(A, [np.pi, np.pi], [0.0, 0.0]) == pytest.approx(4.0)
        assert at(A, [np.pi / 2, 0.0], [1.0, 2.0]) == pytest.approx(1.0)
        assert [f for _, _, f in A.polynomial.terms] == [(0.0,) * 4, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
        with pytest.raises(ValueError):
            torsional_potential(1)

    def test_torsional_ignores_extra_planes(self):
        A = torsional_potential(3)
        assert at(A, [np.pi, np.pi, 1.7], [0.0, 0.0, 0.3]) == pytest.approx(4.0)

    def test_quartic_values(self):
        A = quartic_momentum(2)
        assert at(A, [1.0, 2.0], [0.0, 0.0]) == 0.0
        assert at(A, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(4.0)
        assert at(A, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(625.0)
        assert A.polynomial.degree() == 4

    def test_henon_heiles_values(self):
        spec = HenonHeilesSpec(d=2)
        kinetic, potential = henon_heiles_energy(spec)
        assert at(kinetic, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.5)
        assert at(potential, [0.0, 0.0], [0.0, 0.0]) == 0.0
        q = 0.3645
        expected = q**2 + 1.8436 * (q**2 * q - q**3 / 3.0)
        assert at(potential, [q, q], [0.0, 0.0]) == pytest.approx(expected, rel=1e-14)
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
            lambda: torsional_potential(3),
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
        assert at(A, [3.0, 0.0], [0.0, 5.0]) == pytest.approx(31.0)
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

    def test_observable_without_symbol_rejected(self):
        st = GaussianState.wavepacket(0.05, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            weyl_expectation_gaussian(Observable("abs-q1", lambda Q, P: np.abs(Q[:, 0])), st)


class TestCosineMoments:
    @pytest.mark.parametrize("e", range(5))
    @pytest.mark.parametrize("w", [0.7, 3.0])
    @pytest.mark.parametrize("mean", [0.4, -1.3 + 0.6j, 0.2 - 0.9j])
    def test_matches_mpmath_quadrature(self, e, w, mean):
        # E[X^e cos(w X)] for X = mean + sqrt(var) Z, Z ~ N(0, 1), by 20-digit
        # quadrature over Z (the integrand is entire, so a complex mean
        # continues the real-mean moment)
        mpmath = pytest.importorskip("mpmath")
        var = 0.3
        with mpmath.workdps(20):
            m, s = mpmath.mpc(mean), mpmath.sqrt(var)
            want = mpmath.quad(
                lambda z: (m + s * z) ** e * mpmath.cos(w * (m + s * z)) * mpmath.npdf(z),
                [-mpmath.inf, 0, mpmath.inf],
            )
        got = _cosine_moment(np.array([mean]), var, e, w)[0]
        assert abs(got - complex(want)) <= 1e-14 * max(1.0, abs(complex(want)))


class TestClosedFormReferences:
    def test_marginal_oracle_integrates_to_norm(self):
        h = 0.04
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.3, 0.1], [0.2, 0.0])), (0.8, PhasePoint([0.5, -0.2], [-0.1, 0.3]))]
        )
        one = observable_from_polynomial_records([[1.0, [0, 0, 0, 0]]], 2)
        for side in ("position", "momentum"):
            raw = marginal_reference_slabs(st, one, side, 256, normalized=False)
            assert raw == pytest.approx(state_norm2(st), rel=1e-12)

    def test_torsional_small_h_concentrates(self):
        A = torsional_potential(2)
        st = GaussianState.wavepacket(1e-4, [0.0, 0.0], [0.0, 0.0])
        assert abs(weyl_expectation_gaussian(A, st)) < 1e-3

    @pytest.mark.parametrize("d", [2, 8])
    def test_torsional_closed_form(self, d):
        # E[cos X] = cos(mean) e^{-var/2} with var = h/2 per coordinate
        rng = np.random.default_rng(9)
        A = torsional_potential(d)
        for _ in range(3):
            h = float(rng.uniform(0.02, 0.2))
            q = rng.normal(size=d)
            st = GaussianState.wavepacket(h, q, rng.normal(size=d))
            expected = 2.0 - np.exp(-h / 4.0) * (np.cos(q[0]) + np.cos(q[1]))
            assert weyl_expectation_gaussian(A, st) == pytest.approx(expected, abs=1e-15)

    def test_momentum_side_second_moment(self):
        # momentum-only |p|^2 equals sum p_j^2 + d h / 2 for single branches
        h = 0.08
        p = np.array([0.6, -0.2])
        st = GaussianState.wavepacket(h, [0.1, 0.4], p)
        A = observable_from_polynomial_records(
            [[1.0, [0, 0, 2, 0]], [1.0, [0, 0, 0, 2]]], 2
        )
        assert weyl_expectation_gaussian(A, st) == pytest.approx(np.sum(p**2) + 2 * h / 2.0, rel=1e-15, abs=0)

    def test_superposition_interference_matters(self):
        # the two branches' means of q are -0.4 and 0.4, so without the
        # interference E[q] would be 0
        h = 0.1
        z1, z2 = PhasePoint([-0.4], [0.5]), PhasePoint([0.4], [-0.2])
        st = GaussianState.from_branches(h, [(1.0, z1), (1.0, z2)])
        A = observable_from_polynomial_records([[1.0, [1, 0]]], 1)
        val = weyl_expectation_gaussian(A, st)
        assert val != pytest.approx(0.0, abs=1e-4)
        assert val == pytest.approx(marginal_reference_slabs(st, A, "position", 512), abs=1e-13)

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
            weyl_expectation_gaussian(A, st)


class TestClosedFormOracle:
    """The closed-form reference equals the literal slab-by-slab trapezoid
    sum of A against the exact position or momentum density."""

    # The 256-point axes resolve every branch-pair oscillation of these
    # states (frequencies up to 2/h, widths sqrt(h/2)) far below 1e-14.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        K=strategies.integers(1, 3),
        d=strategies.integers(1, 2),
        h=strategies.floats(0.01, 0.3),
        side=strategies.sampled_from(["position", "momentum"]),
        torsional=strategies.booleans(),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_matches_slab_oracle(self, K, d, h, side, torsional, seed):
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
        expected = marginal_reference_slabs(state, A, side, 256)
        # the same sum with |A|, so cancellation between terms cannot hide an error
        magnitude = Observable("abs", lambda Q, P: np.abs(A.evaluate(Q, P)))
        scale = marginal_reference_slabs(state, magnitude, side, 256)
        assert abs(weyl_expectation_gaussian(A, state) - expected) <= 1e-12 * scale
