"""The library imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this keeps it true.
Relative imports (``from .fssmc import ...``) stay inside the package.
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
