"""Rules on the package source, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fiprimes"


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def unbounded_caches(source: str) -> list[int]:
    """Lines holding ``lru_cache(maxsize=None)`` or ``functools.cache``, which grow without bound."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and _name(node.value) == "functools":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, found", [
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass", [2]),
    ("import functools\n@functools.lru_cache(None)\ndef f(): pass", [2]),
    ("import functools\n@functools.cache\ndef f(): pass", [2]),
    ("from functools import cache", [1]),
    ("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(): pass", []),
    ("from functools import cached_property, lru_cache\n@lru_cache\ndef f(): pass", []),
])
def test_unbounded_cache_detector(source, found):
    assert unbounded_caches(source) == found


def test_package_has_no_unbounded_cache():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = {f.name: lines for f in files if (lines := unbounded_caches(f.read_text()))}
    assert offenders == {}
