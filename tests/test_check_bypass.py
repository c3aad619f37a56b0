"""One construction skips the checks: ``net_model._built``.

Values derived from checked parts are built without running their
``__post_init__``, and only ``_built`` may do that.  This test parses
``src/petriglue`` and fails on any ``object.__new__(``, ``.__dict__[...] =``
or ``.__dict__.update(`` outside it, so that no second idiom for
skipping the checks creeps back in.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "petriglue"
ALLOWED = ("net_model.py", "_built")


def _is_dict(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _bypass(node: ast.AST) -> str | None:
    """The idiom ``node`` is, if it builds or fills an instance unchecked."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr == "__new__" and getattr(func.value, "id", None) == "object":
            return "object.__new__("
        if func.attr == "update" and _is_dict(func.value):
            return ".__dict__.update("
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Subscript) and _is_dict(t.value) for t in targets):
            return ".__dict__[...] ="
    return None


def _bypasses() -> dict[tuple[str, str], set[str]]:
    """Each bypass idiom in the package, by module and top-level definition."""
    found: dict[tuple[str, str], set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                idiom = _bypass(node)
                if idiom:
                    found.setdefault((path.name, owner), set()).add(idiom)
    return found


def test_only_built_skips_the_checks():
    found = _bypasses()
    assert found.pop(ALLOWED) == {"object.__new__("}
    assert found == {}


def test_every_idiom_is_detected():
    source = (
        "class C:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        value = object.__new__(cls)\n"
        "        value.__dict__['x'] = 1\n"
        "        value.__dict__.update(y=2)\n"
        "        return value\n"
    )
    idioms = {_bypass(node) for node in ast.walk(ast.parse(source))} - {None}
    assert idioms == {"object.__new__(", ".__dict__[...] =", ".__dict__.update("}
