"""The runtime is pure stdlib: no module of the package imports anything else."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "matchow").glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    for path in SOURCES:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
