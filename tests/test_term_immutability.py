"""No `pimodulo` module changes a term node once it is built.

Term nodes are plain dataclasses, so nothing at run time stops a store to
a field; they are immutable by convention, and this check holds every
module to it.  Each module is parsed with `ast`.  A store to, or a delete
of, a term field (`fn`, `arg`, `domain`, ...) on anything but `self`
fails it, by attribute or by a `setattr`-style call.  So does a store to
one of the three caches (`_hash`, `_loose`, `_normal`) outside `terms`
and `reduction`, the two modules that fill them in.
"""

import ast
from pathlib import Path

import pytest

import pimodulo

MODULES = sorted(Path(pimodulo.__file__).parent.glob("*.py"))

FIELDS = frozenset({"fn", "arg", "domain", "codomain", "annotation", "body", "hint", "index",
                    "name", "span"})
CACHES = frozenset({"_hash", "_loose", "_normal"})
CACHE_WRITERS = frozenset({"terms", "reduction"})
SETTERS = frozenset({"setattr", "delattr", "__setattr__", "__delattr__"})


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _setter_target(node: ast.Call) -> tuple[ast.expr, str] | None:
    """(object, attribute) of `setattr(obj, "attr", ...)`, `delattr`, or
    their `object.__setattr__` forms, with the attribute a literal."""
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
    if name not in SETTERS or len(node.args) < 2:
        return None
    target, attr = node.args[:2]
    if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
        return target, attr.value
    return None


def term_stores(module: str, source: str) -> list[str]:
    """Each store the module makes to a term field or, outside the cache
    writers, to a cache, as `line: attribute`."""
    forbidden = FIELDS if module in CACHE_WRITERS else FIELDS | CACHES
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target, attr = node.value, node.attr
        elif isinstance(node, ast.Call) and _setter_target(node) is not None:
            target, attr = _setter_target(node)
        else:
            continue
        if attr in forbidden and not _is_self(target):
            found.append((node.lineno, node.col_offset, attr))
    return [f"{line}: {attr}" for line, _, attr in sorted(found)]


def test_the_check_finds_a_store_to_a_term():
    source = (
        "class Parser:\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n"
        "        self._hash = None\n"
        "def f(t, u):\n"
        "    t.fn = u\n"
        "    (t.arg, x), u.span = (1, 2), 3\n"
        "    del t.body\n"
        "    object.__setattr__(t, 'domain', u)\n"
        "    setattr(t, 'hint', 'x')\n"
        "    t._normal = ()\n"
        "    t._index = {}\n"
        "    return t.fn\n"
    )
    want = ["6: fn", "7: arg", "7: span", "8: body", "9: domain", "10: hint"]
    assert term_stores("reduction", source) == want
    assert term_stores("model_cc", source) == want + ["11: _normal"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_changes_a_term(path):
    assert term_stores(path.stem, path.read_text(encoding="utf-8")) == []
