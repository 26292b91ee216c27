"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--write]

Runs ``run.py`` once per (workload, seed) in sequence, seeds 1..runs, and
prints per workload and metric the median, the quartiles and the spread
(inter-quartile range over the median, as ``statistics.quantiles(n=4)``
gives it) next to the metric's bound in BENCHMARK.json.  With ``--write``
one traced run per workload (seed 0) follows, and the summary, every run's
values, the traced per-layer values and the host facts go to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1 means a failed check, reported below
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[0].removeprefix("# host "))
    return json.loads(lines[-1]), host


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, runs, traced, host = {}, {}, {}, None
    for workload in args.workload or names:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, host = one_run(workload, seed, SPEC["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed checks", flush=True)
            runs[workload].append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, json.dumps(runs[workload][-1]), flush=True)
        summary[workload] = {}
        for metric, bound in bounds.items():
            s = summarise([r[metric] for r in runs[workload]])
            summary[workload][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:<20} {metric:<13} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.write:
            result, _ = one_run(workload, 0, SPEC["run_seconds"], trace=1)
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.write:
        out = {"host": host, "run_seconds": SPEC["run_seconds"], "summary": summary, "runs": runs,
               "per_layer_seed0": traced}
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
