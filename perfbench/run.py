"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hh-halton --seed 0 --seconds 25 --trace 0

Run from the root of a phasespec checkout; the package is imported from its
``src/`` and nowhere else.  The run repeats the workload for ``--seconds``
(at least twice), checks every iteration's outputs against references, and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: median iteration wall time,
points per second, set-up time (median over fresh processes that import the
package and build the workload's inputs) and peak RSS.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, including the tracing overhead; the spans are written to
``.perfbench_out/`` in the checkout.  The exit code is 1 when a check fails.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so the estimator's own
# ``workers`` is the only parallelism.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROCESSES = 5
MIN_ITERATIONS = 2


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import phasespec."""
    src = ROOT / "src"
    if not (src / "phasespec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phasespec sources under {src}")
    sys.path.insert(0, str(src))
    import phasespec

    if Path(phasespec.__file__).resolve().parent != src / "phasespec":
        raise SystemExit(f"perfbench: phasespec imported from {phasespec.__file__}, not {src}")


def host_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def digest(numbers: dict) -> str:
    text = ";".join(f"{k}={float(v).hex()}" for k, v in sorted(numbers.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def tail_percentile(values: list) -> tuple:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def measure_setup(args) -> list:
    """Wall times of fresh processes that import and build the inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    times = []
    for _ in range(1 if args.size == "tiny" else SETUP_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_loop(workload, ctx, seconds: float, tracer=None, corrupt=None) -> dict:
    """Repeat the workload until the next iteration would pass ``seconds``.

    A warm-up iteration runs first, inside the ``seconds`` budget but outside
    the medians, so first-call costs (lazy imports, allocator arenas, thread
    start-up) do not count; its outputs are checked like the rest.  With a
    tracer, odd iterations run traced and even ones untraced.
    ``corrupt(outcome, iteration)`` lets the self-test damage a result.
    """
    from workloads import Check

    walls, traced_walls, digests, checks = [], [], [], []

    def record(outcome, iteration):
        if corrupt is not None:
            corrupt(outcome, iteration)
        checks.extend(workload.check(ctx, outcome))
        digests.append(digest(outcome.numbers))

    start = time.perf_counter()
    record(workload.run(ctx), -1)
    iteration = 0
    while True:
        traced = tracer is not None and iteration % 2 == 1
        if traced:
            tracer.install()
        scope = tracer.root(iteration) if traced else contextlib.nullcontext()
        try:
            t0 = time.perf_counter()
            with scope:
                outcome = workload.run(ctx)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        record(outcome, iteration)
        iteration += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        if iteration >= MIN_ITERATIONS and elapsed + typical > seconds:
            break

    same = len(set(digests)) == 1
    checks.append(Check("bit_identity", same, f"{len(set(digests))} distinct digest(s) over {len(digests)} iterations"))
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "checks": checks,
        "outcome": outcome,
    }


def end_to_end(loop: dict, setup_times: list) -> tuple[dict, list]:
    walls = loop["walls"]
    wall = statistics.median(walls)
    points = loop["outcome"].points
    rates = [points / w for w in walls]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": wall,
        "points_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    tail = tail_percentile(walls)
    tail_text = "no tail percentile below 11 samples" if tail is None else f"p{tail[0]:.0f} = {tail[1]:.6f} s"
    n_checks = len(loop["checks"])
    n_failed = sum(not c.ok for c in loop["checks"])
    lines = [
        f"wall_s        {wall:.6f} s     median of {len(walls)} iterations; {tail_text}",
        "              iterations: " + " ".join(f"{w:.4f}" for w in walls),
        f"points_per_s  {metrics['points_per_s']:.6g} 1/s   median of {len(rates)}; {points} points per iteration",
        f"setup_s       {metrics['setup_s']:.6f} s     median of {len(setup_times)} fresh processes",
        f"peak_rss_mb   {rss_mb:.3f} MiB  high-water RSS of this process (1 sample)",
        f"rel_error_max {loop['outcome'].rel_error_max:.6e} 1     against the workload's reference (deterministic per seed)",
        f"failed_frac   {n_failed / n_checks:.6f} 1     {n_failed} of {n_checks} checks",
    ]
    return metrics, lines


def per_layer(loop: dict, tracer) -> tuple[dict, list]:
    import spans
    from phasespec import experiments

    projected = getattr(experiments, "projected_seconds", None)
    per_iteration = [spans.iteration_metrics(group, projected) for group in spans.split_iterations(tracer.spans)]
    metrics = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    metrics["trace.overhead_s"] = statistics.median(loop["traced_walls"]) - statistics.median(loop["walls"])
    lines = [f"{name:<46} {value:.10g} {UNITS[name]}" for name, value in metrics.items()]
    lines.append(
        f"(medians over {len(per_iteration)} traced iterations; "
        f"{len(loop['walls'])} untraced iterations for the overhead)"
    )
    if tracer.missing:
        lines.append("entry points not found: " + ", ".join(tracer.missing))
    return metrics, lines


def write_trace(args, host: dict, tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "host": host,
                   "missing": tracer.missing, "spans": tracer.spans}, fh)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the harness self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None, corrupt=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        workload.teardown(workload.setup(args.seed, tiny, OUT_DIR))
        return 0

    host = host_facts()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        setup_times = measure_setup(args)
    ctx = workload.setup(args.seed, tiny, OUT_DIR)
    try:
        loop = run_loop(workload, ctx, args.seconds, tracer, corrupt)
    finally:
        workload.teardown(ctx)

    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    for c in loop["checks"]:
        if not c.ok:
            print(f"FAILED {c.name}: {c.detail}")
    if tracer is None:
        metrics, lines = end_to_end(loop, setup_times)
    else:
        metrics, lines = per_layer(loop, tracer)
        lines.append(f"spans written to {write_trace(args, host, tracer)}")
    for line in lines:
        print(line)
    failed = sum(not c.ok for c in loop["checks"])
    result = {
        "correct": failed == 0,
        "attempted": len(loop["checks"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
