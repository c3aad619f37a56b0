"""The library holds no dead imports or unused private names.

Every name a module under ``src/petriglue`` imports must be used in
that module, and every private top-level name (``_x``, not a dunder)
must be read somewhere in the package.  ``__init__.py`` is exempt from
the first rule: its imports are the package's public names.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "petriglue"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}


def _read_names(tree: ast.Module) -> set[str]:
    """Names and attributes the module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_imported_name_is_used():
    trees = _trees()
    assert len(trees) > 1
    unused = set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in read:
                        unused.add(f"{module}: {name}")
    assert not unused


def test_every_private_top_level_name_is_read():
    trees = _trees()
    read = set().union(*map(_read_names, trees.values()))
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update(
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            )
    assert not {entry for entry in defined if entry.split(": ")[1] not in read}
