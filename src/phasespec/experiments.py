"""Experiment runners: density sections, accuracy sweeps, the Henon-Heiles
benchmark, and one-off expectation runs, all emitting CSV with a metadata
header.

CSV conventions: comma separated, '.' decimal point, floats rendered in
scientific notation with 17 significant digits (lossless double round-trip),
metadata as leading '# key: value' comment lines including a ``config_json``
entry that reproduces the run.  Numeric columns are bit-reproducible for
fixed configuration in the deterministic modes; the wall_time_s column is
measurement metadata and is exempt.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field, asdict
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .core import GaussianState, PhasePoint, state_norm2
from .densities import (
    CrossTermPolicy,
    husimi_many,
    mu_many,
    wigner_many,
)
from .exceptions import NonFiniteResultError, ResourceGuardError
from .observables import (
    HenonHeilesSpec,
    Observable,
    henon_heiles_total,
    observable_from_label,
    observable_from_polynomial_records,
    weyl_expectation_gaussian,
)
from .quadrature import _axis_parts, _plane_rows, tensor_grid_expectation
from .sampling import EstimatorResult, PointSource, estimate_expectation

__all__ = [
    "RunConfig",
    "SweepResult",
    "benchmark_superposition",
    "resolve_state",
    "resolve_observable",
    "run_density_section",
    "run_accuracy_sweep",
    "run_henon_heiles",
    "run_expectation",
    "write_csv",
    "projected_seconds",
    "check_resource_budget",
    "fit_loglog_slope",
]

DEFAULT_H_LIST = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)
DEFAULT_D_LIST = (2, 8, 32)
# The error-table columns of the accuracy sweep (after "h") and the
# Henon-Heiles run (after "d"); the benchmark harness reads them by name.
_ERROR_COLUMNS = ("method", "observable", "estimate", "reference", "abs_error", "rel_error", "n", "wall_time_s")
# Single-thread cost model for the resource guard.  A plain sampled estimate
# (projected_seconds) costs SAMPLE_COST_SECONDS + d SAMPLE_COST_PER_DIM_SECONDS
# per sample: fitted to traced estimates of the Henon-Heiles run (Halton, one
# worker, three observables of which hh-total is summed from the other two,
# n = 2**17), which measured 4.8-5.8e-7, 0.97-1.25e-6 and 3.0-3.7e-6 s per
# sample at d = 2, 8 and 32 on a 2-core Xeon host (five runs, Halton skips
# 1000-1004, medians of 16-20 estimates each): projected / measured
# 0.91-1.09, 0.88-1.13 and 0.92-1.12 at d = 2, 8 and 32, the minimax fit.
# Philox (--sampler mc) runs of the same estimates, ten runs with seeds 0-4
# and medians of six estimates each, measured 4.1-6.0e-7, 1.07-1.33e-6 and
# 3.35-3.87e-6 s per sample: projected / measured 0.88-1.27, 0.82-1.03 and
# 0.88-1.02, so the constants fit both samplers.
# A shared tensor-grid call walks each of the 2d axes (q_j and p_j of every
# plane) once, points_per_axis nodes in blocks.  Per axis node it costs
# TENSOR_COST_PER_BRANCH_POINT_SECONDS x K for the K axis-table columns, and
# per distinct 1-D factor of the plane rows on that axis (the constant 1 plus
# every distinct q_j or p_j factor of the observables' terms)
# TENSOR_COST_PER_FACTOR_POINT_SECONDS plus TENSOR_COST_PER_GRAM_ENTRY_SECONDS
# x K^2 for its stacked Gram, and TENSOR_COST_PER_EVALUATION_POINT_SECONDS more
# for a factor other than the constant.  Fitted (minimax of projected /
# measured) to medians over 3 rounds of 5 alternating timings of
# mu-and-husimi calls on a 2-core Xeon host, d = 1..3, K = 1, 2, 4, 8, three
# observable sets (2d to 9d axis factors) and 1e4 to 1e5 points per axis:
# projected / measured 0.80-1.25 there (0.64-1.33 within single rounds; a
# later held-out round read 0.86-1.38, and the sweep state at 1e6 points per
# axis 1.26-1.32).  The model leaves out the per-call and per-block overhead,
# so smaller calls read lower: 0.39-0.84 at 1000 points per axis, 0.10-0.40
# at 160 and 0.03-0.13 at 40.
SAMPLE_COST_SECONDS = 3.3e-7
SAMPLE_COST_PER_DIM_SECONDS = 9.6e-8
TENSOR_COST_PER_BRANCH_POINT_SECONDS = 3.6e-8
TENSOR_COST_PER_FACTOR_POINT_SECONDS = 3.3e-8
TENSOR_COST_PER_GRAM_ENTRY_SECONDS = 8.5e-10
TENSOR_COST_PER_EVALUATION_POINT_SECONDS = 1.6e-8
# An observable evaluated through its symbol (an inline polynomial) adds
# SYMBOL_COST_PER_ENTRY_SECONDS per sample and factor-table entry (one per term
# and one per term factor).  Inline |p|^4 estimates (Philox, one worker, medians
# of 5) took 1.42e-6, 5.59e-6 and 3.48e-5 s per sample at d = 8, 32 and 128 on a
# 2-core Xeon host: projected / measured 0.85, 0.91 and 1.14, the minimax fit.
SYMBOL_COST_PER_ENTRY_SECONDS = 1.1e-9
# Seconds per (sample x uniform coordinate) of one exact-policy estimator pass
# over torsional and quartic-momentum, medians of 5 alternating runs at h = 0.01
# on a 2-core Xeon host: d = 2 (the sweep's state) 1.10-1.14e-7 (mu) and
# 8.5-8.9e-8 (husimi) at n = 1e5 and 4e5, projected / measured 0.88-1.18; a
# two-branch d = 3 state 6.5-8.6e-8, projected / measured 1.16-1.54.
EXACT_COST_PER_COORD_SECONDS = 1.0e-7
# Seconds per density-section point, densities to CSV row: medians of 5 runs
# 1.42-1.44e-5 at 1e5 and 3e5 points on a 2-core Xeon host (projected / measured 1.05).
DENSITY_SECTION_COST_PER_POINT_SECONDS = 1.5e-5
TIME_BUDGET_SECONDS = 600.0


def benchmark_superposition(h: float) -> GaussianState:
    """The two-branch d=2 test state with centers z1 = (-1, 1, 1, 1) and
    z2 = (0, 1, -1, -1/2), coefficients (1, 1)."""
    return GaussianState.from_branches(
        h,
        [
            (1.0, PhasePoint([-1.0, 1.0], [1.0, 1.0])),
            (1.0, PhasePoint([0.0, 1.0], [-1.0, -0.5])),
        ],
    )


@dataclass
class RunConfig:
    """Configuration of one CLI run; parseable from flags plus an optional
    JSON config file (flags win)."""

    experiment: str = "expectation"
    h: Optional[float] = None
    d: int = 2
    n: Optional[int] = None  # default depends on the experiment
    sampler: Optional[str] = None  # 'mc' (pseudo-random, default) or 'halton'
    seed: int = 0
    skip: int = 1000
    split: float = 0.5
    method: str = "mu"
    observable: Optional[str] = None
    out: Optional[str] = None
    force: bool = False
    state: Optional[str] = None  # 'origin' | 'superposition-2d' | 'henon-heiles'
    branches: Optional[list] = None
    observable_polynomial: Optional[list] = None
    h_list: Optional[list] = None
    d_list: Optional[list] = None
    alpha: float = 1.8436
    points_per_axis: int = 160
    n_points: int = 400
    max_radius: Optional[float] = None
    workers: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build a config, refusing unknown keys and values whose type does
        not match the field (an int is accepted where a float is expected)."""
        hints = get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            allowed = get_args(hints[key]) or (hints[key],)
            if float in allowed:
                allowed += (int,)
            if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
                raise ValueError(f"config value {key}={value!r} is not of type {cls.__dataclass_fields__[key].type}")
        return cls(**data)

    def point_source(self, dimension: int) -> PointSource:
        kind = "halton" if self.sampler == "halton" else "pseudo-random"
        return PointSource(dimension=dimension, kind=kind, seed=self.seed, skip=self.skip)

    def resolved_n(self, default: int = 100_000) -> int:
        return default if self.n is None else int(self.n)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _checked_entries(values, types, kind: str, name: str) -> list:
    """``values`` as a list, refusing an empty one and entries that are not
    instances of ``types`` (a bool never counts as a number)."""
    values = list(values)
    if not values or not all(isinstance(v, types) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} entries must be {kind} and at least one is required, got {values!r}")
    return values


def _branch_from_record(rec) -> tuple[complex, PhasePoint]:
    """(coefficient, center) of one ``branches`` config entry: an object with
    lists ``q`` and ``p`` of d reals and an optional ``coeff`` that is a real
    or a [real, imaginary] pair (default 1)."""
    if not isinstance(rec, dict) or not {"q", "p"} <= rec.keys() or rec.keys() - {"q", "p", "coeff"}:
        raise ValueError(f"branch entry {rec!r} must be an object with keys q, p and optional coeff")
    for key in ("q", "p"):
        if not isinstance(rec[key], list) or not all(_is_real(x) for x in rec[key]):
            raise ValueError(f"branch {key} must be a list of numbers, got {rec[key]!r}")
    coeff = rec.get("coeff", 1.0)
    if isinstance(coeff, list) and len(coeff) == 2 and all(_is_real(x) for x in coeff):
        coeff = complex(coeff[0], coeff[1])
    elif not _is_real(coeff):
        raise ValueError(f"branch coeff must be a number or a [real, imag] pair, got {coeff!r}")
    return complex(coeff), PhasePoint(rec["q"], rec["p"])


def resolve_state(config: RunConfig) -> GaussianState:
    """Build the Gaussian state described by the configuration."""
    if config.branches:
        h = config.h if config.h is not None else 0.01
        return GaussianState.from_branches(h, [_branch_from_record(rec) for rec in config.branches])
    preset = config.state
    if preset is None:
        if config.experiment == "accuracy-sweep":
            preset = "superposition-2d"
        elif config.experiment == "henon-heiles" or (
            config.observable or ""
        ).startswith("hh-"):
            preset = "henon-heiles"
        else:
            preset = "origin"
    if preset == "superposition-2d":
        return benchmark_superposition(config.h if config.h is not None else 0.01)
    if preset == "henon-heiles":
        h = config.h if config.h is not None else 0.0037
        return HenonHeilesSpec(d=config.d, alpha=config.alpha, h=h).benchmark_state()
    if preset == "origin":
        h = config.h if config.h is not None else 0.01
        return GaussianState.wavepacket(h, np.zeros(config.d), np.zeros(config.d))
    raise ValueError(
        f"unknown state preset {preset!r}; use origin, superposition-2d or henon-heiles"
    )


def resolve_observable(config: RunConfig, d: int) -> Observable:
    if config.observable_polynomial:
        return observable_from_polynomial_records(config.observable_polynomial, d)
    if not config.observable:
        raise ValueError("an observable label (or inline polynomial) is required")
    return observable_from_label(config.observable, d, alpha=config.alpha)


def projected_seconds(n: int, d: int, weighted: bool = False) -> float:
    """Cost-model projection of a sampling run (single thread), with the
    importance weights' pass over every uniform coordinate if ``weighted``."""
    if weighted:
        return float(n) * (2 * d + 2) * EXACT_COST_PER_COORD_SECONDS
    return float(n) * (SAMPLE_COST_SECONDS + d * SAMPLE_COST_PER_DIM_SECONDS)


def _symbol_evaluation_seconds(n: int, A: Observable) -> float:
    """Cost-model projection of evaluating A through its symbol on n samples,
    0 when A has an evaluator of its own."""
    if A.polynomial is None or A.fn != A.polynomial.evaluate:
        return 0.0
    terms = A.polynomial.factor_table[1]
    return float(n) * SYMBOL_COST_PER_ENTRY_SECONDS * (len(terms) + sum(len(fs) for _, fs in terms))


def _projected_tensor_grid_seconds(points_per_axis: int, state: GaussianState, observables) -> float:
    """Cost-model projection of one shared tensor-grid call over the
    observables: points_per_axis nodes on each of the 2d axes, each
    evaluating the K axis-table columns and, for every distinct 1-D factor
    on that axis, the factor and its Gram entries."""
    K, d = state.n_branches, state.dim
    axes = [set(side) for rows in _plane_rows(observables, d)[0] for side in zip(*_axis_parts(rows, d))]
    factors = sum(map(len, axes))
    evaluated = factors - len(axes)  # every axis has the constant factor ()
    return float(points_per_axis) * (
        2 * d * K * TENSOR_COST_PER_BRANCH_POINT_SECONDS
        + factors * (TENSOR_COST_PER_FACTOR_POINT_SECONDS + TENSOR_COST_PER_GRAM_ENTRY_SECONDS * K * K)
        + evaluated * TENSOR_COST_PER_EVALUATION_POINT_SECONDS
    )


def check_resource_budget(n: int, d_values, force: bool) -> float:
    total = sum(projected_seconds(n, d) for d in np.atleast_1d(d_values))
    return _require_budget(total, force)


def _require_dim(d: int) -> None:
    """Refuse an ``expectation`` state dimension outside 1..128 (henon-heiles runs 2..128)."""
    if not 1 <= d <= 128:
        raise ValueError(f"expectation needs a state dimension in 1..128, got d={d}")


def _require_grid(name: str, size: int) -> None:
    """Refuse a grid with fewer than 2 points per axis before any work starts."""
    if size < 2:
        raise ValueError(f"{name} must be at least 2 grid points per axis, got {size}")


def _require_budget(total: float, force: bool) -> float:
    if total > TIME_BUDGET_SECONDS and not force:
        raise ResourceGuardError(
            f"projected run time {total:.0f}s exceeds the {TIME_BUDGET_SECONDS:.0f}s "
            "budget; pass --force to run anyway"
        )
    return total


@dataclass
class SweepResult:
    """Rows of a parameter sweep plus fitted error slopes."""

    columns: list
    rows: list
    slopes: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def fit_loglog_slope(x_values, errors) -> float:
    """Least-squares slope of log10(error) against log10(x); needs at least
    two distinct x values."""
    x = np.log10(np.asarray(x_values, dtype=float))
    if np.unique(x).size < 2:
        raise ValueError("a log-log slope needs at least 2 distinct x values")
    y = np.log10(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def write_csv(target, columns, rows, metadata: dict | None = None) -> str:
    """Write a CSV table with '#'-prefixed metadata lines; returns the text.

    ``target`` may be a path, a file-like object, or None (text only).
    """
    buf = io.StringIO()
    if metadata:
        for key, value in metadata.items():
            buf.write(f"# {key}: {value}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    text = buf.getvalue()
    if target is None:
        return text
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
    return text


def base_metadata(config: RunConfig, generator: str | None = None) -> dict:
    meta = {"version": __version__}
    if generator:
        meta["generator"] = generator
    cfg = config.to_dict()
    meta["config_json"] = json.dumps(cfg, sort_keys=True)
    for key, value in cfg.items():
        if value is not None:
            meta[key] = value
    return meta


def run_density_section(
    h: float = 0.1, max_radius: float | None = None, n_points: int = 400, force: bool = False
) -> SweepResult:
    """Radial section of the Wigner, Husimi and mu densities of a single
    d = 1 wavepacket, tabulated against |w - z|.

    The mu column changes sign exactly once, at |w - z| = 2 sqrt(h (1 + d/2)).
    A max_radius that is not positive and finite, or fewer than 2 points, is
    refused, and so (unless ``force``) is one over the time budget.
    """
    state = GaussianState.wavepacket(h, [0.0], [0.0])
    if max_radius is None:
        max_radius = 6.0 * np.sqrt(h)
    if not (np.isfinite(max_radius) and max_radius > 0.0):
        raise ValueError(f"max_radius must be positive and finite, got {max_radius}")
    _require_grid("n_points", n_points)
    _require_budget(n_points * DENSITY_SECTION_COST_PER_POINT_SECONDS, force)
    radii = np.linspace(0.0, max_radius, n_points)
    Q = radii[:, None]
    P = np.zeros_like(Q)
    w_vals = wigner_many(state, Q, P)
    h_vals = husimi_many(state, Q, P)
    m_vals = mu_many(state, Q, P)
    rows = [
        (float(r), float(wv), float(hv), float(mv))
        for r, wv, hv, mv in zip(radii, w_vals, h_vals, m_vals)
    ]
    meta = {
        "h": h,
        "zero_crossing_radius": 2.0 * np.sqrt(h * 1.5),
    }
    return SweepResult(columns=["radius", "wigner", "husimi", "mu"], rows=rows, metadata=meta)


def run_accuracy_sweep(
    h_list=DEFAULT_H_LIST,
    methods=("mu", "husimi"),
    observable_labels=("torsional", "quartic-momentum"),
    points_per_axis: int = 160,
    reference_resolution: int = 2048,  # accepted and ignored: a benchmark self-test still passes it
    sampler_config: RunConfig | None = None,
    force: bool = False,
) -> SweepResult:
    """Errors of grid-quadrature expectations of A against mu and the Husimi
    density, swept over h, with fitted log-log slopes per (method,
    observable).

    Estimates use full tensor-grid quadrature (interference included), or,
    given a ``sampler_config``, the exact-policy sampling estimator with its
    stream, n, split and workers; the reference is the exact
    :func:`weyl_expectation_gaussian`.  Slopes are
    reported only for at least two distinct h and when every error in the fit
    exceeds 10x the estimated quadrature (or sampling) noise floor.  The
    projected cost of the quadrature (or of the sampled estimates) is checked
    against the resource budget first.
    """
    h_list = _checked_entries(h_list, (int, float, np.integer, np.floating), "real numbers", "h_list")
    h_list = sorted({float(h) for h in h_list}, reverse=True)
    if any(h <= 0 for h in h_list):
        raise ValueError("h values must be positive")
    use_sampler = sampler_config is not None
    states = [benchmark_superposition(h) for h in h_list]
    # entries may be labels or d -> Observable factories (e.g. degree-<=3
    # polynomial control rows, whose mu error sits at the quadrature floor)
    observable_sets = [
        [
            observable_from_label(lbl, state.dim) if isinstance(lbl, str) else lbl(state.dim)
            for lbl in observable_labels
        ]
        for state in states
    ]
    # sampler mode reads one stream per (h, method) for all observables; grid
    # mode makes one tensor-grid call per h for every (method, observable)
    if use_sampler:
        n = sampler_config.resolved_n()
        projected = sum(len(methods) * projected_seconds(n, st.dim, weighted=True) for st in states)
    else:
        projected = sum(
            _projected_tensor_grid_seconds(points_per_axis, st, obs)
            for st, obs in zip(states, observable_sets)
        )
        _require_grid("points_per_axis", points_per_axis)
    _require_budget(projected, force)
    rows = []
    errors: dict[tuple, list] = {}
    floors_ok: dict[tuple, bool] = {}
    for h, state, observables in zip(h_list, states, observable_sets):
        refs = {A.label: weyl_expectation_gaussian(A, state) for A in observables}
        if not use_sampler:
            # one shared plane walk per h for every (method, observable)
            t0 = time.perf_counter()
            grid = tensor_grid_expectation(
                state, observables, methods, points_per_axis=points_per_axis
            )
            grid_wall = time.perf_counter() - t0
        for method in methods:
            # (estimate, noise floor, n, wall time) per observable
            if use_sampler:
                t0 = time.perf_counter()
                # the benchmark superposition interferes at the large-h end;
                # the exact policy weights every h alike, the small h too
                results = estimate_expectation(
                    state,
                    observables,
                    method=method,
                    n=n,
                    source=sampler_config.point_source(2 * state.dim + 2),
                    split=sampler_config.split,
                    policy=CrossTermPolicy(mode="exact"),
                    workers=sampler_config.workers,
                )
                wall = time.perf_counter() - t0
                outcomes = [(r.value, 3.0 * r.stderr + 1e-12, n, wall) for r in results]
            else:
                n_used = points_per_axis ** (2 * state.dim)
                outcomes = [
                    (estimate, 1e-12 * max(1.0, abs(refs[A.label])), n_used, grid_wall)
                    for A, estimate in zip(observables, grid[method])
                ]
            for A, (estimate, floor, n_used, wall) in zip(observables, outcomes):
                ref = refs[A.label]
                abs_err = abs(estimate - ref)
                rel_err = abs_err / abs(ref)
                rows.append(
                    (h, method, A.label, estimate, ref, abs_err, rel_err, n_used, wall)
                )
                key = (method, A.label)
                errors.setdefault(key, []).append(abs_err)
                floors_ok[key] = floors_ok.get(key, True) and abs_err > 10.0 * floor
    slopes = {}
    for key, errs in errors.items():
        slopes[key] = fit_loglog_slope(h_list, errs) if floors_ok[key] and len(h_list) > 1 else None
    meta = {f"slope_{m}_{o}": s for (m, o), s in slopes.items()}
    meta["h_list"] = json.dumps(h_list)
    result = SweepResult(
        columns=["h", *_ERROR_COLUMNS],
        rows=rows,
        slopes=slopes,
        metadata=meta,
    )
    for row in rows:
        if not np.isfinite(row[3]):
            raise NonFiniteResultError("accuracy sweep produced a non-finite estimate")
    return result


def run_henon_heiles(
    d_list=DEFAULT_D_LIST,
    n: int = 1_000_000,
    sampler: str = "halton",
    seed: int = 0,
    skip: int = 1000,
    split: float = 0.5,
    alpha: float = 1.8436,
    h: float = 0.0037,
    force: bool = False,
    workers: int = 1,
) -> SweepResult:
    """Relative kinetic/potential/total energy errors of the mu estimator on
    the Henon-Heiles benchmark state across dimensions.

    The potential is a degree-3 polynomial, so the moment-formula reference
    is exact and every reported error is pure sampling error.
    """
    d_list = [int(d) for d in _checked_entries(d_list, (int, np.integer), "integers", "d_list")]
    if any(d < 2 or d > 128 for d in d_list):
        raise ValueError("d_list entries must lie in 2..128")
    check_resource_budget(n, d_list, force)
    stream = RunConfig(sampler=sampler, seed=seed, skip=skip)
    rows = []
    generator = None
    for d in sorted(d_list):
        spec = HenonHeilesSpec(d=d, alpha=alpha, h=h)
        state = spec.benchmark_state()
        total = henon_heiles_total(spec)
        kinetic, potential = total.parts
        source = stream.point_source(2 * d + 2)
        generator = source.generator_id
        energies = (kinetic, potential, total)
        t0 = time.perf_counter()
        results = estimate_expectation(
            state, energies, method="mu", n=n, source=source, split=split, workers=workers
        )
        wall = time.perf_counter() - t0
        for A, result in zip(energies, results):
            reference = weyl_expectation_gaussian(A, state)
            abs_err = abs(result.value - reference)
            rel_err = abs_err / abs(reference)
            rows.append((d, "mu", A.label, result.value, reference, abs_err, rel_err, n, wall))
    return SweepResult(
        columns=["d", *_ERROR_COLUMNS],
        rows=rows,
        metadata={"generator": generator, "n": n, "alpha": alpha, "h": h},
    )


def run_expectation(config: RunConfig) -> tuple[EstimatorResult, float, SweepResult]:
    """Single expectation estimate with its exact reference value.

    A state dimension outside 1..128 is refused before the observable is
    built, and a ``d`` outside it before the state is built."""
    _require_dim(config.d)
    state = resolve_state(config)
    _require_dim(state.dim)
    A = resolve_observable(config, state.dim)
    n = config.resolved_n()
    policy = CrossTermPolicy(mode="neglect")
    weighted = policy.weights_needed(state)
    _require_budget(projected_seconds(n, state.dim, weighted) + _symbol_evaluation_seconds(n, A), config.force)
    source = config.point_source(2 * state.dim + 2)
    result = estimate_expectation(
        state,
        A,
        method=config.method,
        n=n,
        source=source,
        split=config.split,
        policy=policy,
        workers=config.workers,
    )
    reference = weyl_expectation_gaussian(A, state)
    abs_err = abs(result.value - reference)
    rel_err = None if reference == 0.0 else abs_err / abs(reference)
    rows = [
        (
            A.label,
            config.method,
            result.value,
            result.stderr,
            reference,
            abs_err,
            rel_err,
            n,
        )
    ]
    table = SweepResult(
        columns=[
            "observable",
            "method",
            "estimate",
            "stderr",
            "reference",
            "abs_error",
            "rel_error",
            "n",
        ],
        rows=rows,
        metadata={
            "generator": result.generator,
            "norm2": state_norm2(state),
            "importance_weights": weighted,
            "max_pair_damping": policy.max_offdiagonal_damping(state),
        },
    )
    return result, reference, table
