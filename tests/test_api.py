"""The documented surface: every exported name exists, and the README's
Python example runs against the current package."""

import importlib
import re
from pathlib import Path

import pytest

import phasespec

MODULES = ("core", "densities", "observables", "sampling", "quadrature", "experiments")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    mod = phasespec if module is None else importlib.import_module(f"phasespec.{module}")
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names {missing}"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
