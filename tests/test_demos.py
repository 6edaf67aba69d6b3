"""Every demo runs to completion against the package's exports, those
exports are exactly what the README, the demos and the acceptance gate use,
and the ones outside the exceptions and the matroid layer load on first
access."""

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


@pytest.fixture
def uncached(monkeypatch):
    """The package with the names it loads on first access not yet loaded."""
    for name in matchow._LAZY:
        monkeypatch.delitem(vars(matchow), name, raising=False)
    return matchow


def test_every_export_is_its_submodules_own_object(uncached):
    for name in uncached.__all__:
        obj = getattr(uncached, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("matchow.")
        assert getattr(home, name) is obj
        # the first access keeps the name, so the next one is a plain lookup
        assert vars(uncached)[name] is obj


def test_star_import_binds_every_export(uncached):
    namespace = {}
    exec("from matchow import *", namespace)
    for name in uncached.__all__:
        assert namespace[name] is getattr(uncached, name)


def test_dir_lists_every_export(uncached):
    assert set(uncached.__all__) <= set(dir(uncached))


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        matchow.no_such_name


def test_bare_package_import_loads_no_route_module():
    probe = (
        "import sys, matchow; "
        "print(sorted(name for name in sys.modules if name.startswith('matchow.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['matchow.errors', 'matchow.matroid']"
