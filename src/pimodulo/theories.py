"""Packaged theories and example judgement files."""

from __future__ import annotations

import functools
from importlib import resources

from .errors import PiModuloError
from .syntax import TheoryFile, parse_theory

BUILTIN_THEORIES = ("stt", "cc")


def _asset(*parts: str) -> str:
    root = resources.files("pimodulo").joinpath("assets")
    return root.joinpath(*parts).read_text(encoding="utf-8")


@functools.cache
def builtin_theory(name: str) -> TheoryFile:
    if name not in BUILTIN_THEORIES:
        raise PiModuloError(
            f"unknown builtin theory {name!r} (have: {', '.join(BUILTIN_THEORIES)})"
        )
    return parse_theory(_asset("theories", f"{name}.th"), path=f"builtin:{name}")


def load_theory(spec: str) -> TheoryFile:
    """Resolve a --theory argument: a builtin name or a file path."""
    if spec in BUILTIN_THEORIES:
        return builtin_theory(spec)
    return parse_theory(read_text(spec), path=spec)


def read_text(path: str) -> str:
    """The text of a UTF-8 file.  A file that is not UTF-8 raises an
    OSError that names it, as a file that cannot be opened does."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc


def builtin_example(name: str) -> str:
    """Text of a packaged judgement file, by bare name ('stt_basics')."""
    return _asset("examples", f"{name}.tm")
