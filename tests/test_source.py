"""Source hygiene: every private module-level helper in `src/rtlab` is used
by the program itself, not only by the tests, every import is read in
its module or function, the result records are NamedTuples, not
dataclasses, and every module stays under CPython's 4,096-token compile
step."""

import ast
import tokenize
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rtlab.cleaning import CleaningConfig, clean, critical_sets, list_size_histogram
from rtlab.containers import build_rainbow_hypergraph, container_constants, container_hypothesis_check
from rtlab.counting import bounds_compare, partition_polynomial, rho_max_search
from rtlab.graphs import closeness_to_kpartite, complete_graph
from rtlab.templates import from_coloring

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


def _defined(node) -> list:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment, annotated or not, binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_private_helpers(src=SRC) -> list:
    """module:name of each module-level `_name` function, class or constant
    that no code in `src` references outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
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
        "_LIMIT: int = 3\n"
        "_UNUSED = _LIMIT + 1\n\n"
        "def public():\n    return _used() + _LIMIT\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Shape\n")
    assert unreferenced_private_helpers(tmp_path) == ["a:_dead", "a:_UNUSED"]


def _imports(node, scope):
    """(scope, import) for each import statement under `node`, in source
    order; the scope is the innermost function around it, else `scope`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def unused_imports(src=SRC) -> list:
    """module:name of each name an import binds that nothing reads in its
    scope: the module for a module-level import, the function for one inside
    a function.  `__init__` (re-exports) and `from __future__` are exempt."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for scope, node in _imports(tree, tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            read = {sub.id for sub in ast.walk(scope) if isinstance(sub, ast.Name)}
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
        "def public(x: Fraction):\n    return js.dumps(os.path.sep)\n\n"
        "def lazy(flag):\n    from math import comb, isqrt\n"
        "    if flag:\n        import re\n        return re.escape(flag)\n    return comb(4, 2)\n\n"
        "def other():\n    return isqrt(4)\n"
    )
    # isqrt is read, but not in the function that imports it
    assert unused_imports(tmp_path) == ["a:gcd", "a:isqrt"]


def dataclass_imports(src=SRC) -> list:
    """module:line of each import of `dataclasses`, at any depth."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    # each frozen dataclass generated its methods with `exec` at import, on
    # every `rtl` call; as NamedTuples the records halve rtlab's own import
    # time (11.7 -> 5.8 ms, min of 15 with cached bytecode, 2-CPU VM)
    assert dataclass_imports() == []


def test_guard_sees_a_dataclass_import(tmp_path):
    (tmp_path / "a.py").write_text("import os\n\ndef f():\n    import dataclasses\n")
    (tmp_path / "b.py").write_text("from dataclasses import dataclass, field\n")
    assert dataclass_imports(tmp_path) == ["a:4", "b:1"]


def _records() -> list:
    """One record of each result type, as the library builds them."""
    t = from_coloring(complete_graph(6), [1] * 15, 12)
    trace = clean(t, CleaningConfig(r=12, xi=Fraction(1, 100), original_n=6))
    k4 = complete_graph(4)
    return [
        CleaningConfig(r=12, xi=Fraction(1, 100), original_n=6),
        trace.steps[0],
        trace,
        critical_sets(t),
        list_size_histogram(t),
        build_rainbow_hypergraph(t)[0],
        container_constants(10, 12),
        container_hypothesis_check(10, 12),
        partition_polynomial(k4),
        bounds_compare(12, 4),
        rho_max_search(4, 6),
        closeness_to_kpartite(k4, 3),
    ]


@pytest.mark.parametrize("rec", _records(), ids=lambda rec: type(rec).__name__)
def test_records_are_immutable_named_tuples(rec):
    first = rec._fields[0]
    assert isinstance(rec, tuple)
    assert repr(rec).startswith(f"{type(rec).__name__}({first}=")
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        rec.other = 1
    again = rec._replace(**{first: getattr(rec, first)})
    assert type(again) is type(rec) and again == rec
    assert type(rec)(**rec._asdict()) == rec


_UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def module_tokens(src=SRC) -> dict:
    """module -> its token count as CPython's parser meets it: every token
    `tokenize` yields but comments, non-logical line breaks and the
    encoding marker, which the parser never sees."""
    counts = {}
    for path in sorted(src.glob("*.py")):
        with path.open("rb") as fh:
            counts[path.stem] = sum(tok.type not in _UNPARSED for tok in tokenize.tokenize(fh.readline))
    return counts


def test_every_module_stays_under_the_compile_token_step():
    # compiling a module of 4,096 tokens or more takes about 250 KiB more
    # memory, on every call when no bytecode is written
    over = {module: n for module, n in module_tokens().items() if n >= 4096}
    assert over == {}, f"modules at 4,096 tokens or more: {over}"


def test_token_count_leaves_out_what_the_parser_never_sees(tmp_path):
    (tmp_path / "a.py").write_text(
        "# a comment line\n\nx = 1  # a trailing comment\ny = (1,\n     2)\n"
    )
    # x = 1 NEWLINE, y = ( 1 , 2 ) NEWLINE, ENDMARKER
    assert module_tokens(tmp_path) == {"a": 13}
