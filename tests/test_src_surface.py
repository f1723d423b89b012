"""``src/`` holds only what the program runs.

Every module-level function and class in ``src/dcnn``, and every method
whose name is not ``__dunder__``, must be named somewhere in ``src/``,
``perfbench/`` or ``tools/`` outside its own definition: as a name, as
an attribute, or as a string constant, such as the tracer's ``TIMED``
table or ``dcnn.__all__``.  Tests do not count, so a definition that only
tests use fails here; its place is ``tests/oracles.py`` or its test.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree):
    """Each name that ``tree`` uses: an ast.Name, an attribute, or a
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(module):
    """The module's functions and classes, and its classes' methods
    other than ``__dunder__`` ones."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item


def unused_definitions(root: Path) -> list:
    """``module: name`` of each definition in ``root/src/dcnn`` that no
    code in src/, perfbench/ or tools/ names outside the definition."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in ("src", "perfbench", "tools")
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    }
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != root / "src" / "dcnn":
            continue
        for definition in _definitions(tree):
            inside = Counter(_names(definition))[definition.name]
            if uses[definition.name] == inside:
                unused.append(f"{path.stem}: {definition.name}")
    return unused


def test_every_src_definition_is_used_outside_itself():
    assert unused_definitions(ROOT) == []
