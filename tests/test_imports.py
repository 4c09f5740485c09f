"""Every name a library module imports at module level is used in it, and
every private module-level name is read somewhere in the package.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules: an
unused import misstates which modules depend on which, and a private
helper, class or constant that nothing reads is dead code.
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
    """Names read in tree; a name only assigned or deleted is not read."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned names that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_name_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    read = set().union(*map(_used, trees.values()))
    unread = sorted(f"{module}: {name}" for module, tree in trees.items()
                    for name in _private_definitions(tree) - read)
    assert unread == []
