"""Every demo runs to completion against the package's exports, and those
exports are exactly what the README, the demos and the acceptance gate use."""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matchow
import matchow.errors

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def _names_imported_from_matchow(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "matchow" and not node.level
        for alias in node.names
    }


def test_exports_are_what_readme_demos_and_gate_import():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [path.read_text() for path in DEMOS]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    used = set().union(*map(_names_imported_from_matchow, sources))
    exceptions = {
        name
        for name, obj in vars(matchow.errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert set(matchow.__all__) == used | exceptions
