"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s`` to see them as they complete) and asserts every
stated tolerance.
"""

import math
import time
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
    sample_component,
    state_norm2,
    weyl_expectation_gaussian,
)
from phasespec import densities as D
from phasespec.experiments import (
    benchmark_superposition,
    check_resource_budget,
    run_accuracy_sweep,
    run_henon_heiles,
)
from phasespec.exceptions import ResourceGuardError
from phasespec.observables import observable_from_polynomial_records
from phasespec.quadrature import tensor_grid_expectation, tensor_grid_integrals
from phasespec.sampling import CHUNK_SIZE

from _oracles import _pair_geometry, mu_single_branch_many


def report(number, name, ok):
    print(f"\n[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def random_degree3_polynomial(rng, d):
    terms = []
    for _ in range(int(rng.integers(3, 7))):
        exps = [0] * (2 * d)
        for _ in range(int(rng.integers(0, 4))):
            exps[int(rng.integers(0, 2 * d))] += 1
        terms.append([float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])), exps])
    return observable_from_polynomial_records(terms, d)


def test_acceptance_1_order_of_accuracy():
    """Grid-quadrature error slopes: mu fits 2 +- 0.3, husimi 1 +- 0.2, and
    mu beats husimi at every h, within a 5 minute budget."""
    t0 = time.perf_counter()
    sweep = run_accuracy_sweep()
    elapsed = time.perf_counter() - t0

    failures = []
    for label in ("torsional", "quartic-momentum"):
        slope_mu = sweep.slopes[("mu", label)]
        slope_h = sweep.slopes[("husimi", label)]
        if not (slope_mu is not None and abs(slope_mu - 2.0) <= 0.3):
            failures.append(f"mu slope for {label}: {slope_mu}")
        if not (slope_h is not None and abs(slope_h - 1.0) <= 0.2):
            failures.append(f"husimi slope for {label}: {slope_h}")
    errs = {(row[0], row[1], row[2]): row[5] for row in sweep.rows}
    for h in sorted({row[0] for row in sweep.rows}):
        for label in ("torsional", "quartic-momentum"):
            if not errs[(h, "mu", label)] < errs[(h, "husimi", label)]:
                failures.append(f"mu error not below husimi at h={h} for {label}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    ok = report(1, "order of accuracy (h-sweep slopes)", not failures)
    assert ok, failures


def test_acceptance_2_degree3_exactness():
    """50 random single-branch states x degree-<=3 polynomials: grid
    quadrature of A mu matches the moment formula to 1e-8 relative, and the
    n = 1e6 sampling estimate matches within 5 standard errors."""
    rng = np.random.default_rng(2024)
    failures = []
    for case in range(50):
        d = 1 if case < 25 else 2
        h = float(rng.uniform(0.02, 0.1))
        st = GaussianState.wavepacket(
            h, rng.uniform(-1, 1, size=d), rng.uniform(-1, 1, size=d)
        )
        A = random_degree3_polynomial(rng, d)
        exact = weyl_expectation_gaussian(A, st)
        while abs(exact) < 0.1:  # keep the relative tolerance meaningful
            A = random_degree3_polynomial(rng, d)
            exact = weyl_expectation_gaussian(A, st)
        grid = tensor_grid_expectation(st, A, "mu", points_per_axis=160)
        if not abs(grid - exact) <= 1e-8 * abs(exact):
            failures.append(f"case {case}: grid {grid} vs exact {exact}")
        res = estimate_expectation(
            st,
            A,
            method="mu",
            n=10**6,
            source=PointSource(dimension=2 * d + 2, seed=1000 + case),
        )
        if not abs(res.value - exact) < 5 * res.stderr:
            failures.append(
                f"case {case}: sampled {res.value} vs {exact}, stderr {res.stderr}"
            )
    ok = report(2, "degree-<=3 exactness (grid 1e-8 rel, sampling 5 sigma)", not failures)
    assert ok, failures


def test_acceptance_3_henon_heiles_scaled():
    """d in {2, 8, 32} at 1e6 Halton points: relative total-energy error
    below 1e-3 against the exact moment reference; the d = 128 / 1e8 scale
    runs only under the force flag but uses the identical code path."""
    t0 = time.perf_counter()
    sweep = run_henon_heiles(d_list=(2, 8, 32), n=10**6, sampler="halton")
    failures = []
    for row in sweep.rows:
        d, _, label, est, ref, abs_err, rel_err, _, _ = row
        if label == "hh-total" and not rel_err < 1e-3:
            failures.append(f"d={d}: relative total-energy error {rel_err:.3e}")
        if not np.isfinite(est):
            failures.append(f"d={d} {label}: non-finite estimate")
    # full-scale guard semantics: refused without force, admitted with it
    try:
        run_henon_heiles(d_list=(128,), n=10**8, force=False)
        failures.append("guard did not refuse the d=128, n=1e8 run")
    except ResourceGuardError:
        pass
    check_resource_budget(10**8, range(2, 129), force=True)  # no exception
    # the d = 128 code path itself runs at reduced n (same algorithm)
    tiny = run_henon_heiles(d_list=(128,), n=4096)
    if not all(np.isfinite(v) for v in tiny.column("estimate")):
        failures.append("d=128 execution produced non-finite values")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10 minutes")
    ok = report(3, "Henon-Heiles scaled benchmark (1e-3 at 1e6 Halton)", not failures)
    assert ok, failures


def test_acceptance_4_density_identities():
    """(a) closed form = combination to 1e-12 relative on 1e3 points;
    (b) Laplacian identity matches finite differences to 1e-5 relative;
    (c) H and every S_j are non-negative on 1e5 points;
    (d) d=1 grid integrals of H and the Hermite mixture equal <psi|psi>
        (the measured normalization) within 1e-6."""
    rng = np.random.default_rng(4)
    failures = []

    # (a) single-branch closed form vs combination path
    for d in (1, 2):
        h = 0.07
        st = GaussianState.wavepacket(h, rng.normal(size=d), rng.normal(size=d))
        m = 1000
        Q = st.centers_q[0] + 3 * np.sqrt(h) * rng.normal(size=(m, d))
        P = st.centers_p[0] + 3 * np.sqrt(h) * rng.normal(size=(m, d))
        a = D.mu_combination_many(st, Q, P)
        b = mu_single_branch_many(st.centers_q[0], st.centers_p[0], h, Q, P)
        envelope = (2 * np.pi * h) ** -d * np.exp(
            -np.sum((Q - st.centers_q[0]) ** 2 + (P - st.centers_p[0]) ** 2, axis=1)
            / (2 * h)
        )
        bad = np.abs(a - b) > 1e-12 * (np.abs(b) + envelope)
        if np.any(bad):
            failures.append(f"(a) d={d}: {bad.sum()} of {m} points exceed 1e-12 relative")

    # (b) Laplacian identity vs 5-point finite differences
    from _oracles import fd_laplacian

    for d in (1, 2):
        h = 0.1
        st = GaussianState.from_branches(
            h,
            [
                (1.0, PhasePoint(rng.normal(size=d) * 0.3, rng.normal(size=d) * 0.3)),
                (0.6 + 0.3j, PhasePoint(rng.normal(size=d) * 0.3, rng.normal(size=d) * 0.3)),
            ],
        )
        for _ in range(3):
            w = rng.normal(size=2 * d) * 0.4
            val = D.laplacian_husimi_many(st, w[None, :d], w[None, d:])[0]
            oracle = fd_laplacian(
                lambda x: D.husimi_many(st, x[None, :d], x[None, d:])[0], w, step=1e-3
            )
            if not abs(val - oracle) <= 1e-5 * abs(oracle):
                failures.append(f"(b) d={d}: {val} vs FD {oracle}")

    # (c) non-negativity on 1e5 random points
    st = benchmark_superposition(0.05)
    m = 100_000
    Q = rng.uniform(-2.5, 2.5, size=(m, 2))
    P = rng.uniform(-2.5, 2.5, size=(m, 2))
    if not np.all(D.husimi_many(st, Q, P) >= 0.0):
        failures.append("(c) husimi negative somewhere")
    for j in (1, 2):
        if not np.all(D.hermite_spectrogram_many(st, j, Q, P) >= 0.0):
            failures.append(f"(c) hermite spectrogram {j} negative somewhere")

    # (d) d=1 normalization: integrals equal <psi|psi> to 1e-6
    h = 0.05
    st1 = GaussianState.from_branches(
        h, [(1.0, PhasePoint([-0.45], [0.2])), (0.8 + 0.1j, PhasePoint([0.45], [-0.3]))]
    )
    norm = state_norm2(st1)
    if abs(norm - np.sum(np.abs(st1.coefficients) ** 2)) < 1e-3:
        failures.append("(d) test state overlap too small to distinguish exponents")
    for method in ("husimi", "hermite-mixture"):
        _, total = tensor_grid_integrals(st1, None, method, points_per_axis=420)
        if not abs(total - norm) <= 1e-6:
            failures.append(f"(d) {method} integral {total} vs norm {norm}")
    ok = report(4, "density identities (closed forms, Laplacian, signs, norm)", not failures)
    assert ok, failures


def test_acceptance_5_cross_term_protocol():
    """Superposition closed form (pairwise path) agrees with the
    spectrogram-combination path to 1e-10 relative on d=1 grids after the
    one-time constant verification, and the neglect-policy error obeys the
    damping bound on the 2D benchmark state."""
    failures = []
    # d=1 grids, several h, including complex coefficients
    for h in (0.1, 0.02):
        st = GaussianState.from_branches(
            h, [(1.0, PhasePoint([-0.5], [0.3])), (0.8 - 0.4j, PhasePoint([0.5], [-0.2]))]
        )
        q = np.linspace(-1.5, 1.5, 160)
        p = np.linspace(-1.2, 1.2, 160)
        QQ, PP = np.meshgrid(q, p, indexing="ij")
        Q, P = QQ.ravel()[:, None], PP.ravel()[:, None]
        a = D.mu_combination_many(st, Q, P)
        c = D.mu_many(st, Q, P)
        scale = np.max(np.abs(a))
        worst = np.max(np.abs(a - c)) / scale
        if not worst <= 1e-10:
            failures.append(f"h={h}: paths disagree at {worst:.3e} relative")

    # damping bound on the benchmark superposition
    h = 0.1
    st = benchmark_superposition(h)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 2, size=4000)
    Q = st.centers_q[idx] + 5 * np.sqrt(h) * rng.normal(size=(4000, 2))
    P = st.centers_p[idx] + 5 * np.sqrt(h) * rng.normal(size=(4000, 2))
    exact = D.mu_many(st, Q, P, CrossTermPolicy(mode="exact"))
    neglect = D.mu_many(st, Q, P, CrossTermPolicy(mode="neglect", threshold=1.1))
    damping = CrossTermPolicy().pair_damping(st)[0, 1]
    OkOl, B = _pair_geometry(st, 0, 1, Q, P)
    bracket_max = np.max(
        2.0 * (2 * np.pi * h) ** -st.dim * (np.abs(OkOl) / damping) * np.abs(B)
    )
    if not np.max(np.abs(exact - neglect)) <= damping * bracket_max * (1 + 1e-12):
        failures.append("neglected-cross-term bound violated")
    ok = report(5, "cross-term protocol (paths agree, damping bound)", not failures)
    assert ok, failures


def test_acceptance_6_sampler_correctness():
    """Inverse-CDF round trips (1e-9 normal, 1e-10 Gamma-2), exact Halton
    prefixes, component moments within 5 sigma at n = 1e5, and bit-identical
    estimates across thread counts."""
    failures = []

    # inverse-CDF round trips
    u = np.linspace(1e-6, 1 - 1e-6, 10_000)
    x = inverse_normal_cdf(u)
    back = 0.5 * np.array([math.erfc(-xi / math.sqrt(2.0)) for xi in x])
    if not np.max(np.abs(back - u)) < 1e-9:
        failures.append("normal round trip exceeds 1e-9")
    g = gamma2_inverse_cdf(u)
    if not np.max(np.abs(gamma2_cdf(g) - u) / u) < 1e-10:
        failures.append("Gamma-2 round trip exceeds 1e-10 relative")

    # exact Halton prefixes
    def exact_radical_inverse(index, base):
        value, scale = Fraction(0), Fraction(1, base)
        while index > 0:
            value += (index % base) * scale
            index //= base
            scale /= base
        return float(value)

    pts = halton_points(64, 6, skip=1)
    bases = (2, 3, 5, 7, 11, 13)
    for i in range(64):
        for dim, base in enumerate(bases):
            if pts[i, dim] != exact_radical_inverse(i + 1, base):
                failures.append(f"halton mismatch at index {i + 1}, base {base}")

    # component moments at n = 1e5
    h = 0.04
    st = GaussianState.wavepacket(h, [0.25, -0.4], [0.1, 0.3])
    n = 100_000
    samples = sample_component(st, "husimi", n, PointSource(dimension=6, seed=66))
    pts_h = np.array([np.concatenate([s.point.q, s.point.p]) for s in samples])
    target = np.concatenate([st.centers_q[0], st.centers_p[0]])
    if not np.all(np.abs(pts_h.mean(axis=0) - target) < 5 * np.sqrt(h / n)):
        failures.append("husimi sample mean off target")
    var = pts_h.var(axis=0, ddof=1)
    if not np.all(np.abs(var - h) < 5 * h * np.sqrt(2.0 / n)):
        failures.append("husimi sample variance off h")
    st1 = GaussianState.wavepacket(h, [0.0], [0.0])
    samples = sample_component(st1, "hermite-mixture", n, PointSource(dimension=4, seed=67))
    s2 = np.array([s.point.q[0] ** 2 + s.point.p[0] ** 2 for s in samples])
    if not abs(s2.mean() - 4 * h) < 5 * np.sqrt(8 * h * h / n):
        failures.append("hermite mean squared radius off 4h")

    # bit-identical across thread counts
    from phasespec.observables import torsional_potential

    st2 = GaussianState.wavepacket(0.01, [0.3, 0.3], [1.0, 0.0])
    A = torsional_potential(2)
    src = PointSource(dimension=6, seed=99)
    n_est = 3 * CHUNK_SIZE + 777
    base = estimate_expectation(st2, A, method="mu", n=n_est, source=src, workers=1)
    for workers in (2, 5):
        other = estimate_expectation(st2, A, method="mu", n=n_est, source=src, workers=workers)
        if other.value != base.value or other.stderr != base.stderr:
            failures.append(f"estimate differs at workers={workers}")
    ok = report(6, "sampler correctness (CDFs, Halton, moments, determinism)", not failures)
    assert ok, failures
