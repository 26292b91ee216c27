"""Command-line interface.

Subcommands
-----------
density-section   radial section of the Wigner / Husimi / mu densities (d=1)
accuracy-sweep    grid-quadrature error sweep over h for the 2D benchmark state
henon-heiles      sampled Henon-Heiles energies across dimensions
expectation       one estimate of a single observable

Every subcommand accepts the shared flags (--h, --d, --n, --sampler, --seed,
--skip, --split, --method, --observable, --out, --config, --force, ...);
values from a JSON --config file are used for any flag not given explicitly.

Exit codes: 0 success, 2 usage error, 3 resource-guard refusal, 4 non-finite
or overflowing numerical result.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exceptions import ResourceGuardError
from .experiments import (
    DEFAULT_D_LIST,
    RunConfig,
    base_metadata,
    run_accuracy_sweep,
    run_density_section,
    run_expectation,
    run_henon_heiles,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, default=None, help="semiclassical width parameter")
    parser.add_argument("--d", type=int, default=None, help="dimension")
    parser.add_argument("--n", type=int, default=None, help="number of sample points")
    parser.add_argument("--sampler", choices=("mc", "halton"), default=None)
    parser.add_argument("--seed", type=int, default=None, help="pseudo-random seed")
    parser.add_argument("--skip", type=int, default=None, help="Halton skip (first element index)")
    parser.add_argument("--leap", type=int, default=None, help="Halton leap (index stride)")
    parser.add_argument("--split", type=float, default=None, help="Husimi point fraction (mu method)")
    parser.add_argument("--method", choices=("mu", "husimi"), default=None)
    parser.add_argument("--observable", default=None, help="observable label")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--force", action="store_true", default=None, help="override the resource guard")
    parser.add_argument("--state", default=None, help="state preset: origin | superposition-2d | henon-heiles")
    parser.add_argument("--alpha", type=float, default=None, help="Henon-Heiles coupling")
    parser.add_argument("--workers", type=int, default=None, help="worker threads (results are identical)")
    parser.add_argument("--h-list", default=None, help="comma-separated h values for sweeps")
    parser.add_argument("--d-list", default=None, help="comma-separated dimensions for henon-heiles")
    parser.add_argument("--points-per-axis", type=int, default=None, help="tensor-grid resolution")
    parser.add_argument("--n-points", type=int, default=None, help="density-section radial points")
    parser.add_argument("--max-radius", type=float, default=None, help="density-section maximum radius")
    parser.add_argument("--threshold", type=float, default=None, help="cross-term neglect threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasespec",
        description="Expectation values of Gaussian wavepacket states from "
        "smooth phase-space densities.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("density-section", "tabulate Wigner/Husimi/mu against |w - z| (d=1)"),
        ("accuracy-sweep", "grid-quadrature error sweep over h (d=2 benchmark)"),
        ("henon-heiles", "sampled Henon-Heiles energies across dimensions"),
        ("expectation", "estimate one observable expectation"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    flag_map = {name: getattr(args, name, None) for name in RunConfig.__dataclass_fields__}
    flag_map["h_list"] = _parse_list(args.h_list, float)
    flag_map["d_list"] = _parse_list(args.d_list, int)
    merged = dict(file_values)
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = value
    return RunConfig.from_dict(merged)


def _parse_list(text, cast):
    if text is None:
        return None
    return [cast(part) for part in str(text).split(",") if part.strip()]


def _emit(table, config: RunConfig, extra_meta: dict | None = None) -> None:
    meta = base_metadata(config)
    meta.update(table.metadata)
    if extra_meta:
        meta.update(extra_meta)
    target = config.out if config.out else sys.stdout
    write_csv(target, table.columns, table.rows, meta)
    if config.out:
        print(f"wrote {config.out}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.experiment == "density-section":
            h = config.h if config.h is not None else 0.1
            table = run_density_section(h, config.max_radius, config.n_points, force=config.force)
            _emit(table, config)
        elif config.experiment == "accuracy-sweep":
            kwargs = {}
            if config.h_list is not None:
                kwargs["h_list"] = config.h_list
            if config.sampler is not None:
                # demonstration mode: sampled estimates instead of grid quadrature
                kwargs["use_sampler"] = True
                kwargs["sampler_config"] = config
            table = run_accuracy_sweep(
                points_per_axis=config.points_per_axis,
                force=config.force,
                **kwargs,
            )
            _emit(table, config)
        elif config.experiment == "henon-heiles":
            table = run_henon_heiles(
                d_list=DEFAULT_D_LIST if config.d_list is None else config.d_list,
                n=config.resolved_n(default=1_000_000),
                sampler=config.sampler or "halton",
                seed=config.seed,
                skip=config.skip,
                leap=config.leap,
                split=config.split,
                alpha=config.alpha,
                h=config.h if config.h is not None else 0.0037,
                force=config.force,
                workers=config.workers,
            )
            _emit(table, config)
        elif config.experiment == "expectation":
            result, reference, table = run_expectation(config)
            _emit(table, config, extra_meta={"stderr_is_estimate": not result.deterministic})
            print(f"estimate: {result.value:.16e}")
            print(f"stderr: {result.stderr:.16e}" + ("  (deterministic sampler)" if result.deterministic else ""))
            print(f"reference: {reference:.16e}")
            print(f"seed: {config.seed}")
            print(f"generator: {result.generator}")
            print(f"version: {__version__}")
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown experiment {config.experiment!r}")
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:  # NonFiniteResultError, overflow, division by zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
