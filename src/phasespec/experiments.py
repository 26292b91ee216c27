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
    henon_heiles_energy,
    henon_heiles_total,
    observable_from_label,
    observable_from_polynomial_records,
    reference_expectation_grid,
    weyl_expectation_gaussian,
)
from .quadrature import tensor_grid_expectation
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
# Rough single-thread cost model for the resource guard: seconds per
# (sample x uniform coordinate), and seconds per (marginal-grid point x
# branch) of reference_expectation_grid (1.1-1.3e-7 measured at d = 2, 3
# and K = 1, 2; 1.1-1.5e-7 on the accuracy sweep's K = 2, d = 2 references
# at resolution 2048).
COST_PER_COORD_SECONDS = 1.5e-7
# Seconds per (sample x uniform coordinate) of one exact-policy
# (importance-weighted) estimator pass over two observables on the
# two-branch d = 2 benchmark superposition: 2.6-3.0e-7 measured for the mu
# method and 1.9-2.1e-7 for the husimi method at n = 1e5 and 4e5 on a
# 2-core Xeon host, plus headroom for host drift.
EXACT_COST_PER_COORD_SECONDS = 4e-7
GRID_COST_PER_POINT_SECONDS = 1.6e-7
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
    leap: int = 1
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
    reference_resolution: int = 2048
    n_points: int = 400
    max_radius: Optional[float] = None
    threshold: float = 1e-14
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
        return PointSource(
            dimension=dimension, kind=kind, seed=self.seed, skip=self.skip, leap=self.leap
        )

    def resolved_n(self, default: int = 100_000) -> int:
        return default if self.n is None else int(self.n)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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


def projected_seconds(n: int, d: int) -> float:
    """Cost-model projection of a sampling run (single thread)."""
    return float(n) * (2 * d + 2) * COST_PER_COORD_SECONDS


def _projected_grid_seconds(resolution: int, state: GaussianState) -> float:
    """Cost-model projection of one marginal-grid reference: resolution**d
    points, each summing the K branch wavefunctions."""
    return float(resolution) ** state.dim * state.n_branches * GRID_COST_PER_POINT_SECONDS


def check_resource_budget(n: int, d_values, force: bool) -> float:
    total = sum(projected_seconds(n, d) for d in np.atleast_1d(d_values))
    return _require_budget(total, force)


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
    """Least-squares slope of log10(error) against log10(x)."""
    x = np.log10(np.asarray(x_values, dtype=float))
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
    h: float = 0.1, max_radius: float | None = None, n_points: int = 400
) -> SweepResult:
    """Radial section of the Wigner, Husimi and mu densities of a single
    d = 1 wavepacket, tabulated against |w - z|.

    The mu column changes sign exactly once, at |w - z| = 2 sqrt(h (1 + d/2)).
    """
    if max_radius is None:
        max_radius = 6.0 * np.sqrt(h)
    state = GaussianState.wavepacket(h, [0.0], [0.0])
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


_SIDE_FOR = {"q": "position", "p": "momentum"}


def run_accuracy_sweep(
    h_list=DEFAULT_H_LIST,
    methods=("mu", "husimi"),
    observable_labels=("torsional", "quartic-momentum"),
    points_per_axis: int = 160,
    reference_resolution: int = 2048,
    use_sampler: bool = False,
    sampler_config: RunConfig | None = None,
    force: bool = False,
) -> SweepResult:
    """Errors of grid-quadrature expectations of A against mu and the Husimi
    density, swept over h, with fitted log-log slopes per (method,
    observable).

    Estimates use full tensor-grid quadrature (interference included); the
    reference is the exact marginal-density quadrature.  Slopes are reported
    only when every error in the fit exceeds 10x the estimated quadrature
    (or sampling) noise floor.  The projected cost of the references (and of
    the sampled estimates) is checked against the resource budget first.
    """
    h_list = sorted({float(h) for h in h_list}, reverse=True)
    if any(h <= 0 for h in h_list):
        raise ValueError("h values must be positive")
    cfg = sampler_config or RunConfig()
    states = [benchmark_superposition(h) for h in h_list]
    # sampler mode reads one stream per (h, method) for all observables
    n_streams = len(methods) if use_sampler else 0
    projected = sum(
        len(observable_labels) * _projected_grid_seconds(reference_resolution, st)
        + n_streams * cfg.resolved_n() * (2 * st.dim + 2) * EXACT_COST_PER_COORD_SECONDS
        for st in states
    )
    _require_budget(projected, force)
    rows = []
    errors: dict[tuple, list] = {}
    floors_ok: dict[tuple, bool] = {}
    for h, state in zip(h_list, states):
        # entries may be labels or d -> Observable factories (e.g. degree-<=3
        # polynomial control rows, whose mu error sits at the quadrature floor)
        observables = [
            observable_from_label(lbl, state.dim) if isinstance(lbl, str) else lbl(state.dim)
            for lbl in observable_labels
        ]
        refs = {}
        for A in observables:
            side = _SIDE_FOR.get(A.depends_on())
            if side is None:
                raise ValueError(
                    f"observable {A.label!r} is not one-sided; no grid reference available"
                )
            refs[A.label] = reference_expectation_grid(
                state, A, side, resolution=reference_resolution
            )
        for method in methods:
            # (estimate, noise floor, n, wall time) per observable
            if use_sampler:
                t0 = time.perf_counter()
                # the benchmark superposition has non-negligible interference
                # at the large-h end, so the demonstration sampler runs the
                # importance-weighted exact policy
                results = estimate_expectation(
                    state,
                    observables,
                    method=method,
                    n=cfg.resolved_n(),
                    source=cfg.point_source(2 * state.dim + 2),
                    split=cfg.split,
                    policy=CrossTermPolicy(mode="exact"),
                    workers=cfg.workers,
                )
                wall = time.perf_counter() - t0
                outcomes = [(r.value, 3.0 * r.stderr + 1e-12, cfg.resolved_n(), wall) for r in results]
            else:
                outcomes = []
                for A in observables:
                    t0 = time.perf_counter()
                    estimate = tensor_grid_expectation(
                        state, A, method=method, points_per_axis=points_per_axis
                    )
                    wall = time.perf_counter() - t0
                    floor = 1e-12 * max(1.0, abs(refs[A.label]))
                    outcomes.append((estimate, floor, points_per_axis ** (2 * state.dim), wall))
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
        slopes[key] = fit_loglog_slope(h_list, errs) if floors_ok[key] else None
    meta = {f"slope_{m}_{o}": s for (m, o), s in slopes.items()}
    meta["h_list"] = json.dumps(h_list)
    result = SweepResult(
        columns=[
            "h",
            "method",
            "observable",
            "estimate",
            "reference",
            "abs_error",
            "rel_error",
            "n",
            "wall_time_s",
        ],
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
    leap: int = 1,
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
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in d_list):
        raise ValueError(f"d_list entries must be integers, got {list(d_list)!r}")
    d_list = [int(d) for d in d_list]
    if any(d < 2 or d > 128 for d in d_list):
        raise ValueError("d_list entries must lie in 2..128")
    check_resource_budget(n, d_list, force)
    stream = RunConfig(sampler=sampler, seed=seed, skip=skip, leap=leap)
    rows = []
    generator = None
    for d in sorted(d_list):
        spec = HenonHeilesSpec(d=d, alpha=alpha, h=h)
        state = spec.benchmark_state()
        kinetic, potential = henon_heiles_energy(spec)
        total = henon_heiles_total(spec)
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
    result = SweepResult(
        columns=[
            "d",
            "method",
            "observable",
            "estimate",
            "reference",
            "abs_error",
            "rel_error",
            "n",
            "wall_time_s",
        ],
        rows=rows,
        metadata={"generator": generator, "n": n, "alpha": alpha, "h": h},
    )
    for row in rows:
        if not np.isfinite(row[3]):
            raise NonFiniteResultError("Henon-Heiles run produced a non-finite estimate")
    return result


def run_expectation(config: RunConfig) -> tuple[EstimatorResult, Optional[float], SweepResult]:
    """Single expectation estimate with reference value when one is exactly
    or accurately computable."""
    state = resolve_state(config)
    A = resolve_observable(config, state.dim)
    n = config.resolved_n()
    exact_reference = A.polynomial is not None and state.n_branches == 1
    side = None if exact_reference or state.dim > 3 else _SIDE_FOR.get(A.depends_on())
    grid_seconds = 0.0 if side is None else _projected_grid_seconds(config.reference_resolution, state)
    _require_budget(projected_seconds(n, state.dim) + grid_seconds, config.force)
    source = config.point_source(2 * state.dim + 2)
    policy = CrossTermPolicy(mode="neglect", threshold=config.threshold)
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
    reference = None
    if exact_reference:
        reference = weyl_expectation_gaussian(A, state)
    elif side is not None:
        reference = reference_expectation_grid(
            state, A, side, resolution=config.reference_resolution
        )
    abs_err = None if reference is None else abs(result.value - reference)
    rel_err = None if reference in (None, 0.0) else abs_err / abs(reference)
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
        metadata={"generator": result.generator, "norm2": state_norm2(state)},
    )
    return result, reference, table
