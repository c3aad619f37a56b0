"""Run the docstring examples shipped with the library, and the README tour."""
from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import petriglue

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


MODULES = ["petriglue"]
MODULES += [info.name for info in pkgutil.iter_modules(petriglue.__path__, "petriglue.")]


def test_library_doctests():
    """Every module under ``src/petriglue`` runs its examples."""
    attempted = {}
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    assert "petriglue.cli_io" in attempted
    assert attempted["petriglue.net_model"] > 0
    assert attempted["petriglue.gluing"] > 0


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_readme_python_block(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
