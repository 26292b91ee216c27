"""Independent numerical oracles shared by the test modules.

Everything here is built directly from wavefunction definitions and generic
quadrature so it stays independent of the closed forms under test.
"""

import numpy as np
from scipy.integrate import quad

from phasespec.core import GaussianState
from phasespec.densities import _points
from phasespec.sampling import _branch_probabilities


def wavepacket_1d(q0, p0, h):
    """Position-space wavepacket x -> g_(q0,p0)(x) in one dimension."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return (
            (np.pi * h) ** -0.25
            * np.exp(1j / h * p0 * (x - q0 / 2.0))
            * np.exp(-((x - q0) ** 2) / (2.0 * h))
        )

    return g


def hermite_window_1d(h):
    """First-order Hermite window x -> (pi h)^(-1/4) sqrt(2/h) x e^{-x^2/(2h)}."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return (np.pi * h) ** -0.25 * np.sqrt(2.0 / h) * x * np.exp(-(x**2) / (2.0 * h))

    return phi


def superposition_1d(branches, h):
    """psi(x) = sum_k c_k g_(q_k, p_k)(x) from (coeff, q, p) triples."""
    packets = [(c, wavepacket_1d(q0, p0, h)) for c, q0, p0 in branches]

    def psi(x):
        return sum(c * g(x) for c, g in packets)

    return psi


def complex_quad(f, a, b, **kwargs):
    re = quad(lambda x: np.real(f(x)), a, b, **kwargs)[0]
    im = quad(lambda x: np.imag(f(x)), a, b, **kwargs)[0]
    return re + 1j * im


def overlap_quad(z1, z2, h, halfwidth=25.0):
    """<g_z1, g_z2> by adaptive quadrature of the position-space integrand."""
    g1 = wavepacket_1d(z1[0], z1[1], h)
    g2 = wavepacket_1d(z2[0], z2[1], h)
    return complex_quad(lambda x: np.conj(g1(x)) * g2(x), -halfwidth, halfwidth, limit=300)


def wigner_transform_quad(psi, q, p, h, halfwidth=25.0):
    """W_psi(q, p) = (2 pi h)^-1 integral e^{-i p y / h} psi(q + y/2)
    conj(psi(q - y/2)) dy, by adaptive quadrature (d = 1)."""
    val = complex_quad(
        lambda y: np.exp(-1j * p * y / h) * psi(q + y / 2.0) * np.conj(psi(q - y / 2.0)),
        -halfwidth,
        halfwidth,
        limit=400,
    )
    return val.real / (2.0 * np.pi * h)


def spectrogram_convolution_quad(psi, window, q, p, h, span=None, n_grid=221, n_y=2048):
    """(W_psi * W_window)(q, p) = integral W_psi(u) W_window((q, p) - u) du
    by 2D tensor-grid quadrature (d = 1).

    The window is centered near the origin, so the product is supported in a
    span of a few sqrt(h) around (q, p).  Each Wigner factor is computed by
    grid quadrature of its defining transform.
    """
    if span is None:
        span = 14.0 * np.sqrt(h)
    us = np.linspace(q - span, q + span, n_grid)
    vs = np.linspace(p - span, p + span, n_grid)
    yy = np.linspace(-4.0 * span, 4.0 * span, n_y)
    wy = np.full(n_y, yy[1] - yy[0])
    wy[0] = wy[-1] = 0.5 * (yy[1] - yy[0])

    def wigner_grid(f, u_grid, v_grid):
        # B[i, y] = f(u_i + y/2) conj(f(u_i - y/2)); one matrix product per grid.
        B = f(u_grid[:, None] + yy[None, :] / 2.0) * np.conj(
            f(u_grid[:, None] - yy[None, :] / 2.0)
        )
        M = np.exp(-1j * np.outer(v_grid, yy) / h) * wy[None, :]
        return (B @ M.T).real / (2.0 * np.pi * h)

    wpsi = wigner_grid(psi, us, vs)
    wwin = wigner_grid(window, q - us, p - vs)
    w1 = np.full(n_grid, 1.0)
    w1[0] = w1[-1] = 0.5
    du = us[1] - us[0]
    dv = vs[1] - vs[0]
    return float(np.einsum("i,j,ij->", w1, w1, wpsi * wwin) * du * dv)


def fd_laplacian(fn, coords, step=1e-3):
    """5-point finite-difference Laplacian of fn over all coordinates.

    fn takes a 1D coordinate vector; coords is the expansion point.
    """
    coords = np.asarray(coords, dtype=float)
    total = 0.0
    for i in range(coords.size):
        def f1(t, i=i):
            x = coords.copy()
            x[i] = t
            return fn(x)

        x0 = coords[i]
        total += (
            -f1(x0 + 2 * step)
            + 16.0 * f1(x0 + step)
            - 30.0 * f1(x0)
            + 16.0 * f1(x0 - step)
            - f1(x0 - 2 * step)
        ) / (12.0 * step * step)
    return total


def marginal_reference_slabs(state, A, side, resolution, normalized=True):
    """Literal trapezoid sum of A |psi|^2 over a resolution**d marginal grid
    (each axis spans the branch centers plus 12 sqrt(h/2)), walked one slab
    of fixed first coordinate at a time: an independent reference for
    observables of position only or momentum only.

    ``side='momentum'`` uses the momentum-space wavefunction, whose branch
    (q, p) is the wavepacket centered at (p, -q).  A is evaluated at (x, 0) on
    the position side and at (0, x) on the momentum side.
    """
    h, d = state.h, state.dim
    if side == "position":
        cq, cp = state.centers_q, state.centers_p
    else:
        cq, cp = state.centers_p, -state.centers_q
    pad = 12.0 * np.sqrt(h / 2.0)
    axes = [np.linspace(cq[:, i].min() - pad, cq[:, i].max() + pad, resolution) for i in range(d)]
    weights = []
    for ax in axes:
        w = np.full(resolution, ax[1] - ax[0])
        w[0] = w[-1] = 0.5 * (ax[1] - ax[0])
        weights.append(w)
    w_rest = np.ones(1)
    for w in weights[1:]:
        w_rest = np.outer(w_rest, w).ravel()
    rest = [mesh.ravel() for mesh in np.meshgrid(*axes[1:], indexing="ij")]
    num = den = 0.0
    for x0, w0 in zip(axes[0], weights[0]):
        pts = np.column_stack([np.full(w_rest.size, x0)] + rest)
        psi = 0.0
        for k, c in enumerate(state.coefficients):
            branch = c
            for i in range(d):
                branch = branch * wavepacket_1d(cq[k, i], cp[k, i], h)(pts[:, i])
            psi = psi + branch
        rho = np.abs(psi) ** 2
        zeros = np.zeros_like(pts)
        vals = A.evaluate(pts, zeros) if side == "position" else A.evaluate(zeros, pts)
        num += float(np.dot(w0 * w_rest, vals * rho))
        den += float(np.dot(w0 * w_rest, rho))
    return num / den if normalized else num


def tensor_grid_every_row(state, observable, method, points_per_axis):
    """(num, den) of one observable and one method by the plane walk of
    ``tensor_grid_integrals``, but with no shared or copied rows: the Gram
    matrices of every term, None factors included, are summed block by
    block on every plane.  The float arithmetic of each Gram is the same, so
    the results must be equal, not merely close."""
    from phasespec.core import GaussianState, _overlap_factors
    from phasespec.densities import _plane_offset
    from phasespec.quadrature import _BLOCK_POINTS, _trapezoid_weights, plane_axes

    d, h, K = state.dim, state.h, state.n_branches
    terms = [(1.0, (None,) * d)] if observable is None else observable.plane_terms()
    I0 = np.zeros((len(terms) + 1, d, K, K), dtype=complex)
    Ib = np.zeros_like(I0)
    for j, (q_axis, p_axis) in enumerate(plane_axes(state, points_per_axis)):
        plane = GaussianState(
            h, np.ones(K), state.centers_q[:, j : j + 1], state.centers_p[:, j : j + 1]
        )
        w_q, w_p = _trapezoid_weights(q_axis), _trapezoid_weights(p_axis)
        lines = max(1, _BLOCK_POINTS // p_axis.size)
        for start in range(0, q_axis.size, lines):
            rows = slice(start, start + lines)
            QQ, PP = np.meshgrid(q_axis[rows], p_axis, indexing="ij")
            Q, P = QQ.reshape(-1, 1), PP.reshape(-1, 1)
            w = np.outer(w_q[rows], w_p).ravel()
            V = _overlap_factors(plane, Q, P)
            Z = _plane_offset(plane, Q, P, V, 0)
            for t, f in enumerate([None] + [factors[j] for _, factors in terms]):
                wf = w if f is None else w * np.asarray(f(QQ, PP), dtype=float).ravel()
                I0[t, j] += (V * wf) @ V.conj().T
                Ib[t, j] += 2.0 * h * ((Z * wf) @ Z.conj().T)

    def combine(i0, ib):
        prod_all = np.prod(i0, axis=0)
        if method == "husimi":
            return prod_all
        cross = sum(ib[j] * np.prod(np.delete(i0, j, axis=0), axis=0) for j in range(d))
        if method == "mu":
            return (1.0 + d / 2.0) * prod_all - cross / (4.0 * h)
        return cross / (2.0 * h * d)

    def contract(M):
        c = state.coefficients
        return (2.0 * np.pi * h) ** (-d) * float((c @ M @ c.conj()).real)

    num = sum(coeff * combine(I0[1 + t], Ib[1 + t]) for t, (coeff, _) in enumerate(terms))
    return contract(num), contract(combine(I0[0], Ib[0]))


def radical_inverse_digit_loop(indices, base):
    """Radical inverse peeled one base-b digit at a time: the exact int64
    numerator rev_K(index) over the K digits of the largest index, divided
    once by base**K."""
    idx = np.asarray(indices, dtype=np.int64)
    hi = int(idx.max(initial=0))
    ndigits = 1
    while base**ndigits <= hi:
        ndigits += 1
    num = np.zeros_like(idx)
    rem = idx.copy()
    for _ in range(ndigits):
        num = num * base + rem % base
        rem //= base
    return num / float(base**ndigits)


def halton_digit_loop(n, dim, skip, leap=1):
    """Halton elements skip, skip + leap, ... in the first dim prime bases,
    one column per base by ``radical_inverse_digit_loop``."""
    primes = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    indices = skip + leap * np.arange(n, dtype=np.int64)
    return np.column_stack([radical_inverse_digit_loop(indices, b) for b in primes])


def whole_chunk_estimate(state, observables, method, n, source, split=0.5, exact=False):
    """Per observable (value, stderr, mean_husimi, mean_hermite) of
    ``estimate_expectation`` by a whole-chunk pass: each chunk's samples are
    assembled at once and every observable is evaluated on the whole chunk,
    then the chunk sums go through the same reduction tree and moments.
    The quantile transforms and the exact-policy weights are the module's
    own."""
    from phasespec import sampling
    from phasespec.core import state_norm2

    d, h = state.dim, state.h
    sqrt_h = np.sqrt(h)
    cum = np.cumsum(sampling._branch_probabilities(state))

    def assemble(component, u):
        count = u.shape[0]
        branch = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), state.n_branches - 1)
        Qc, Pc = state.centers_q[branch], state.centers_p[branch]
        if component == "husimi":
            g = sampling.ndtri(u[:, 2 : 2 * d + 2])
            return Qc + sqrt_h * g[:, :d], Pc + sqrt_h * g[:, d:]
        plane = np.minimum((u[:, 1] * d).astype(np.int64), d - 1)
        theta = 2.0 * np.pi * u[:, 2]
        radius = np.sqrt(2.0 * h * sampling.gamma2_inverse_cdf(u[:, 3]))
        qoff, poff = np.empty((count, d)), np.empty((count, d))
        if d > 1:
            g = sampling.ndtri(u[:, 4 : 2 * d + 2])
            others = np.arange(d)[None, :] != plane[:, None]
            qoff[others] = (sqrt_h * g[:, : d - 1]).ravel()
            poff[others] = (sqrt_h * g[:, d - 1 :]).ravel()
        rows = np.arange(count)
        qoff[rows, plane] = radius * np.cos(theta)
        poff[rows, plane] = radius * np.sin(theta)
        return Qc + qoff, Pc + poff

    def chunk_sums(component, s, e):
        Q, P = assemble(component, source.uniform_block(s, e - s))
        if exact:
            weights = sampling._importance_weights(state, component, Q, P, state_norm2(state))
        out = []
        for obs in observables:
            vals = obs.evaluate(Q, P)
            if exact:
                vals = vals * weights
            out.append((e - s, np.sum(vals), np.sum(vals * vals)))
        return np.array(out)

    if method == "mu":
        n_h = min(max(int(round(n * split)), 1), n - 1)
        plan = [("husimi", 0, n_h), ("hermite-mixture", n_h, n)]
    else:
        plan = [("husimi", 0, n)]
    stats = {
        comp: sampling._pairwise_reduce([chunk_sums(comp, s, e) for s, e in sampling._chunk_ranges(lo, hi)])
        for comp, lo, hi in plan
    }

    def moments(acc):
        count = int(acc[0])
        mean = acc[1] / count
        return count, mean, max(acc[2] / count - mean * mean, 0.0) * count / max(count - 1, 1)

    results = []
    for i in range(len(observables)):
        cnt_h, mean_h, var_h = moments(stats["husimi"][i])
        if method == "mu":
            cnt_s, mean_s, var_s = moments(stats["hermite-mixture"][i])
            w_h, w_s = 1.0 + d / 2.0, d / 2.0
            value = w_h * mean_h - w_s * mean_s
            variance = w_h**2 * var_h / cnt_h + w_s**2 * var_s / cnt_s
        else:
            value, variance, mean_s = mean_h, var_h / cnt_h, None
        stderr = 0.0 if source.deterministic else float(np.sqrt(variance))
        results.append((float(value), stderr, float(mean_h), None if mean_s is None else float(mean_s)))
    return results


def _proposal_husimi(state: GaussianState, Q, P) -> np.ndarray:
    """Branch-mixture proposal pdf for the Husimi component."""
    h, d = state.h, state.dim
    probs = _branch_probabilities(state)
    dq = Q[:, None, :] - state.centers_q[None, :, :]
    dp = P[:, None, :] - state.centers_p[None, :, :]
    r2 = np.sum(dq * dq + dp * dp, axis=-1)
    dens = (2.0 * np.pi * h) ** (-d) * np.exp(-r2 / (2.0 * h))
    return dens @ probs


def _proposal_hermite(state: GaussianState, Q, P) -> np.ndarray:
    """Branch-mixture proposal pdf for the Hermite-mixture component."""
    h, d = state.h, state.dim
    probs = _branch_probabilities(state)
    dq = Q[:, None, :] - state.centers_q[None, :, :]
    dp = P[:, None, :] - state.centers_p[None, :, :]
    plane_r2 = dq * dq + dp * dp
    r2 = np.sum(plane_r2, axis=-1)
    radial = np.mean(plane_r2, axis=-1) / (2.0 * h)
    dens = (2.0 * np.pi * h) ** (-d) * radial * np.exp(-r2 / (2.0 * h))
    return dens @ probs


def proposal_ratio_weights(state, component, Q, P):
    """Exact-policy weights as the literal ratio exact density / (branch-mixture
    proposal pdf * state norm), both densities at full (2 pi h)^-d scale."""
    from phasespec.core import state_norm2
    from phasespec.densities import hermite_mixture_many, husimi_many

    if component == "husimi":
        target, proposal = husimi_many(state, Q, P), _proposal_husimi(state, Q, P)
    else:
        target, proposal = hermite_mixture_many(state, Q, P), _proposal_hermite(state, Q, P)
    return target / (proposal * state_norm2(state))


def mu_single_branch_many(center_q, center_p, h: float, Q, P) -> np.ndarray:
    """Closed form mu_{g_z}(w) = (2 pi h)^-d (1 + d/2 - r^2/(4h)) e^{-r^2/(2h)}
    with r = |w - z|, for a unit-coefficient wavepacket at z."""
    center_q = np.atleast_1d(np.asarray(center_q, dtype=float))
    center_p = np.atleast_1d(np.asarray(center_p, dtype=float))
    d = center_q.size
    Q, P = _points(Q, P, d)
    dq = Q - center_q[None, :]
    dp = P - center_p[None, :]
    r2 = np.sum(dq * dq + dp * dp, axis=-1)
    pref = (2.0 * np.pi * h) ** (-d)
    return pref * (1.0 + d / 2.0 - r2 / (4.0 * h)) * np.exp(-r2 / (2.0 * h))


def branch_mixture_mu(state, Q, P) -> np.ndarray:
    """sum_k |c_k|^2 mu_{g_{z_k}}(w), mu with every interference pair
    (k, l), k != l, left out: the density the neglect policy's sampler draws
    from."""
    return sum(
        abs(c) ** 2 * mu_single_branch_many(q, p, state.h, Q, P)
        for c, q, p in zip(state.coefficients, state.centers_q, state.centers_p)
    )


def _pair_geometry(state, k, l, Q, P):
    """Shared factors of the (k, l) sesquilinear pair term.

    Returns (OkOl, B) with OkOl = O_k(w) conj(O_l(w)) and the bracket
    B(w) = (1 + d/2) - ((w-z_k).(w-z_l) - i sigma(w-z_k, w-z_l)) / (4h),
    so that the mu pair term is (2 pi h)^-d OkOl B.
    """
    h = state.h
    qk, pk = state.centers_q[k], state.centers_p[k]
    ql, pl = state.centers_q[l], state.centers_p[l]
    ak, bk = Q - qk[None, :], P - pk[None, :]
    al, bl = Q - ql[None, :], P - pl[None, :]
    dist2 = np.sum(ak * ak + bk * bk + al * al + bl * bl, axis=-1)
    # sigma(w, z_k - z_l) = Q.(p_k - p_l) - P.(q_k - q_l)
    sig_w = Q @ (pk - pl) - P @ (qk - ql)
    OkOl = np.exp(-dist2 / (4.0 * h) + 1j * sig_w / (2.0 * h))
    dot = np.sum(ak * al + bk * bl, axis=-1)
    sig_pair = np.sum(ak * bl - bk * al, axis=-1)
    B = (1.0 + state.dim / 2.0) - (dot - 1j * sig_pair) / (4.0 * h)
    return OkOl, B


def _grid_sums(axes, slab_fn):
    """(sum w f rho, sum w rho) over the tensor grid of ``axes`` with
    trapezoid weights w.

    The grid is walked in slabs of fixed first coordinate, so the full mesh
    is never materialized.  ``slab_fn`` maps the (m, len(axes)) coordinates
    of one slab to (f, rho).
    """
    from phasespec.quadrature import _trapezoid_weights

    weights = [_trapezoid_weights(ax) for ax in axes]
    w_rest = np.ones(())
    for wv in weights[1:]:
        w_rest = np.multiply.outer(w_rest, wv)
    w_rest = w_rest.ravel()
    slab = np.empty((w_rest.size, len(axes)))
    for a, mesh in enumerate(np.meshgrid(*axes[1:], indexing="ij"), start=1):
        slab[:, a] = mesh.ravel()
    num = 0.0
    den = 0.0
    for x0, w0 in zip(axes[0], weights[0]):
        slab[:, 0] = x0
        f, rho = slab_fn(slab)
        wcol = w0 * w_rest
        num += float(np.dot(wcol, f * rho))
        den += float(np.dot(wcol, rho))
    return num, den


def direct_grid_integrals(state, observable, method="mu", points_per_axis=60):
    """(integral of A * density, integral of density) as the literal
    pointwise sum over the tensor grid of ``tensor_grid_integrals`` (d <= 2).

    Evaluates the density with the batched pointwise evaluators on every
    grid point, chunking over the leading axis for d = 2.  ``observable``
    may be None for A = 1.
    """
    from phasespec import densities
    from phasespec.quadrature import plane_axes

    if state.dim > 2:
        raise ValueError("direct grid evaluation is limited to d <= 2")
    density = {
        "mu": densities.mu_many,
        "husimi": densities.husimi_many,
        "hermite-mixture": densities.hermite_mixture_many,
    }[method]

    def slab_fn(coords):
        # coordinate order (q1, p1[, q2, p2])
        Q, P = coords[:, 0::2], coords[:, 1::2]
        rho = density(state, Q, P)
        return (np.ones_like(rho) if observable is None else observable.evaluate(Q, P)), rho

    flat_axes = [ax for pair in plane_axes(state, points_per_axis) for ax in pair]
    return _grid_sums(flat_axes, slab_fn)
