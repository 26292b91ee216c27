"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that the
JSON line names exactly the metrics BENCHMARK.json declares.  Then runs each
workload once more with one iteration's outputs scaled by 1.5 and checks
that the damage is counted as failed checks and turns the exit code to 1.
Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, corrupt=None) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, corrupt=corrupt)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def scale_first_timed(outcome, iteration):
    if iteration == 0:
        for key in outcome.numbers:
            outcome.numbers[key] *= 1.5


def main() -> int:
    problems = []
    declared = {
        0: {m["name"] for m in SPEC["end_to_end"]},
        1: {m["name"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            code, result = invoke(workload, trace)
            emitted = set(result["metrics"])
            if emitted != declared[trace]:
                problems.append(
                    f"{workload} trace {trace}: missing {sorted(declared[trace] - emitted)}, "
                    f"undeclared {sorted(emitted - declared[trace])}"
                )
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: clean run failed ({result['failed']} checks)")
        code, result = invoke(workload, 0, corrupt=scale_first_timed)
        if code != 1 or result["correct"] or result["failed"] < 2:
            problems.append(f"{workload}: corrupted result not counted (exit {code}, {result['failed']} failed)")
        print(f"{workload}: corrupted run failed {result['failed']} of {result['attempted']} checks")
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
