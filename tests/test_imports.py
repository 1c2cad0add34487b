"""Every name a `pimodulo` module imports is used in it, and every private
name a module defines is read somewhere in the package.

Deleting code can leave an import, or a helper that only the deleted code
called, behind.  Each module is parsed with `ast`.  A name it imports but
never reads fails the first test.  A name the module lists in `__all__`
is re-exported, and counts as used.  A module-level `_name` (function,
class or constant) fails the second test unless its module reads it or
some module imports it or reads it as an attribute.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names, as `module.name`, that no module
    reads: their own module by name, any module by import or attribute."""
    defined, local, anywhere = [], {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if _private(name)]
        local[module] = {n.id for n in ast.walk(tree)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                anywhere |= {alias.name for alias in node.names}
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in local[module] and name not in anywhere)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "__all__ = []\n"
            "_LIMIT = 3\n"
            "_dead: int = 1\n"
            "_other = 0\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Gone:\n"
            "    pass\n"
        ),
        "b": "import a\nfrom a import _helper\nx = a._other\n",
    }
    assert unread_private_names(sources) == ["a._Gone", "a._dead"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []
