"""Source hygiene: every private module-level helper in `src/rtlab` is used
by the program itself, not only by the tests, and every module-level import
is read by its module."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rtlab"


def _names(node):
    """Every name `node` reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_private_helpers(src=SRC) -> list:
    """module:name of each module-level `_name` function or class that no
    code in `src` references outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if used[name] == Counter(_names(node))[name]:
                dead.append(f"{module}:{name}")
    return dead


def test_no_unreferenced_private_helpers():
    assert unreferenced_private_helpers() == []


def test_guard_sees_a_helper_used_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _dead(x):\n    return _dead(x - 1) if x else 0\n\n"
        "def _used():\n    return 1\n\n"
        "class _Shape:\n    pass\n\n"
        "def public():\n    return _used()\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Shape\n")
    assert unreferenced_private_helpers(tmp_path) == ["a:_dead"]


def unused_imports(src=SRC) -> list:
    """module:name of each name a module-level import binds that nothing else
    in the module reads; `__init__` (re-exports) and `from __future__` are
    exempt."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.stem}:{bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def test_guard_sees_an_import_nothing_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import public\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from fractions import Fraction, gcd\n\n"
        "def public(x: Fraction):\n    return js.dumps(os.path.sep)\n"
    )
    assert unused_imports(tmp_path) == ["a:gcd"]
