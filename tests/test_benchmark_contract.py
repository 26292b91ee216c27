"""The entry points the benchmark workloads call.

Each workload of ``perfbench/workloads.py`` runs once at its tiny size, in
this process, and must pass its own checks, so a change to the package that
breaks a call the benchmark makes fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(3, True, tmp_path)
    try:
        outcome = workload.run(ctx)
        checks = workload.check(ctx, outcome)
    finally:
        workload.teardown(ctx)
    assert checks
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.ok]
    assert not failed, failed
