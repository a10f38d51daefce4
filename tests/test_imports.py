"""Every module of the library uses each name it imports.

No linter ships with the project, so this reads each module's syntax
tree: an imported name must be read somewhere in the module, a quoted
annotation included. The package's __init__ imports to re-export and
is left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reflectix"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for n in ast.walk(tree):
        if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation is not None:
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns:
            yield n.returns


def _names(tree: ast.AST) -> set:
    """The names tree reads, those inside quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= _names(ast.parse(c.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _names(tree)
    unused = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for name in (a.asname or a.name.split(".")[0] for a in node.names)
        if name not in used
    ]
    assert unused == []
