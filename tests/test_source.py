"""Rules on the package source, checked on its syntax tree."""

import ast
from collections import Counter
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


PERFBENCH = SRC.parents[1] / "perfbench"

# public functions that nothing in the product or the benchmark names, kept on purpose
UNREFERENCED_ALLOWED = {
    "majorant_table": "the bulk route behind acceptance criterion 6: at x = 1e5 it takes "
                      "0.017 s, where lambda_plus called per n takes 5 s",
}


def _names_used(tree: ast.AST, methods: bool) -> Counter:
    """How often a syntax tree names each name: plain names, attributes and
    imports.  A plain name is a local, a global or a builtin, so with
    ``methods`` only attributes (``.name``) and imports count, which alone
    reach a method."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not methods:
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
    return used


def _public_defs(tree: ast.Module):
    """(label, def, is_method) for the top-level functions and the methods
    and properties of the top-level classes, a method labelled ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item, True


def unreferenced_functions(src: Path, others: list[Path]) -> set[str]:
    """Public functions, methods and properties of the modules in ``src``
    that no module of ``src`` or ``others`` names outside their own
    definition.  Oracles, named ``*_bruteforce`` or ``*_direct``, are
    exempt: only tests call them.  Dunders start with ``_`` and stay out,
    since operators call them without naming them."""
    trees = {f: ast.parse(f.read_text()) for f in [*sorted(src.glob("*.py")), *others]}
    used = {m: sum((_names_used(t, m) for t in trees.values()), Counter()) for m in (False, True)}
    return {
        label
        for f, tree in trees.items() if f.parent == src
        for label, node, is_method in _public_defs(tree)
        if not node.name.startswith("_")
        and not node.name.endswith(("_bruteforce", "_direct"))
        and used[is_method][node.name] == _names_used(node, is_method)[node.name]
    }


def test_unreferenced_detector_reports_an_unnamed_method(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def named(self): return 1\n"
        "    def unnamed(self): return 2\n"
        "    @property\n"
        "    def prop(self): return 3\n"
        "    def __add__(self, other): return self\n"
        "def f(a): return a.named() + a.prop\n"
        "total = f(A() + A())\n"
    )
    assert unreferenced_functions(tmp_path, []) == {"A.unnamed"}


def test_unreferenced_detector_reports_a_method_named_like_a_local(tmp_path):
    # a local variable or parameter of the same name reaches no method
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def named(self): return 1\n"
        "    def scale(self): return 2\n"
        "def f(a, scale=1):\n"
        "    scale = scale * 2\n"
        "    return scale * a.named()\n"
        "total = f(A())\n"
    )
    assert unreferenced_functions(tmp_path, []) == {"A.scale"}


def test_every_public_function_is_reached():
    # a function only its own tests call is code a reader must trust for no output
    found = unreferenced_functions(SRC, sorted(PERFBENCH.glob("*.py")))
    assert found == set(UNREFERENCED_ALLOWED)


def nested_imports(source: str) -> list[int]:
    """Lines of the imports that are not statements of the module body
    itself: inside a function, a class, or an ``if`` or ``try`` block."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


@pytest.mark.parametrize("source, found", [
    ("import math\nfrom . import primes\nfrom .primes import check_bytes as cb", []),
    ("import math\ndef f():\n    return math.pi", []),
    ("def f():\n    from .local import reference_H\n    return reference_H()", [2]),
    ("class A:\n    import numpy as np", [2]),
    ("def f():\n    def g():\n        import os\n    return g", [3]),
    ("try:\n    import numpy\nexcept ImportError:\n    numpy = None", [2]),
])
def test_nested_import_detector(source, found):
    assert nested_imports(source) == found


def test_library_modules_import_at_module_level():
    # an import inside a function is paid, in time and traced bytes, by its
    # first call; cli.py imports per command to keep ``fi`` start-up light
    files = sorted(f for f in SRC.glob("*.py") if f.name != "cli.py")
    assert files
    offenders = {f.name: lines for f in files if (lines := nested_imports(f.read_text()))}
    assert offenders == {}


# the private names one module of the package reads from another, and why
PRIVATE_IMPORTS_ALLOWED = {
    ("buchstab", "primes._pi_bound"): "rough_mask bounds its base primes' bytes by the prime count "
                                      "that primes_upto checks",
    ("buchstab", "primes._sieve_odd"): "rough_mask and rough_count strike through the one odd-only "
                                       "sieve kernel",
    ("ternary", "primes._prime_power_rows"): "wtrick_build scatters LL from the rows of the one row "
                                             "sieve, as fi_weighted_count does",
    ("ternary", "primes._row_sieve_bytes"): "wtrick_build checks the row sieve's bytes before it "
                                            "allocates its sequence",
}


def private_imports(source: str) -> set[str]:
    """``module._name`` for each private name read from another module of
    the package: imported by name (``from .primes import _x``, or from
    ``fiprimes.primes``), or read off a module imported whole
    (``from . import primes``, then ``primes._x``).  Dunders are not private."""
    tree = ast.parse(source)
    found, modules = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").split(".")[0] == "fiprimes"):
            continue
        for alias in node.names:
            if node.module in (None, "fiprimes"):
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_") and not alias.name.startswith("__"):
                found.add(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("source, found", [
    ("from .primes import _pi_bound, check_bytes", {"primes._pi_bound"}),
    ("from fiprimes.primes import _row_lengths as rows", {"primes._row_lengths"}),
    ("from . import primes as P\nn = P._pi_bound(10) + P.check_bytes(1, '')", {"primes._pi_bound"}),
    ("def f():\n    from .ternary import _covered\n    return _covered", {"ternary._covered"}),
    ("from __future__ import annotations\nfrom ._impl import __version__", set()),
    ("import numpy as np\nfrom numpy import _core\nx = np._NoValue", set()),
    ("def _own(): pass\n_own()", set()),
])
def test_private_import_detector(source, found):
    assert private_imports(source) == found


def test_private_imports_are_allowed_with_a_reason():
    # a module that reads another's private names couples to its internals;
    # each such read is listed with the reason it is needed
    found = {(f.stem, name) for f in sorted(SRC.glob("*.py")) for name in private_imports(f.read_text())}
    assert found == set(PRIVATE_IMPORTS_ALLOWED)
    assert all(reason for reason in PRIVATE_IMPORTS_ALLOWED.values())
