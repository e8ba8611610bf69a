"""Source hygiene: every private module-level helper in `src/rtlab` is used
by the program itself, not only by the tests."""

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
