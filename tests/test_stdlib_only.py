"""The library imports nothing outside the standard library, and parses
as the oldest Python it declares.

``pyproject.toml`` declares ``dependencies = []`` and
``requires-python = ">=3.10"``; this keeps both true.  Relative imports
(``from .fssmc import ...``) stay inside the package.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "petriglue"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_library_parses_as_python_3_10():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
