"""Run the docstring examples shipped with the library, and the README tour."""
from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

import petriglue.net_model

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_net_model_doctests():
    result = doctest.testmod(petriglue.net_model)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_readme_python_block(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
