"""Every name a library module imports at module level is used in it.

A stdlib-only stand-in for a linter's unused-import rule: an unused import
misstates which modules depend on which.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pivotal"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, ast.FunctionDef):
        return node.returns
    return None


def _used(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A string annotation such as "ExplicitDist | None" uses what it parses to.
    for annotation in filter(None, map(_annotation, ast.walk(tree))):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _used(ast.parse(part.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _used(tree)) == []
