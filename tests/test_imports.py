"""Every name a `pimodulo` module imports is used in it.

Deleting code can leave an import behind.  Each module is parsed with
`ast`, and a name it imports but never reads fails the test.  A name the
module lists in `__all__` is re-exported, and counts as used.
"""

import ast
from pathlib import Path

import pytest

import pimodulo

MODULES = sorted(Path(pimodulo.__file__).parent.glob("*.py"))


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names read by annotations written as strings."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                             args.vararg, args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in notes:
        for part in ast.walk(note) if note is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used - _annotation_names(tree))


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import inf, pi as tau\n"
        "from typing import Any\n"
        "__all__ = ['inf']\n"
        "def f(x: 'Any') -> float:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["tau"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
