"""Every function, method and class the library defines is referenced.

A stdlib-only stand-in for a linter's dead-code rule: a definition in
``src/pivotal`` that no code in ``src``, ``tests``, ``scripts`` or
``perfbench`` names is code nothing runs. A use counts as a name or an
attribute (an import alone does not); the "Class.name" strings that
``perfbench/tracing.py`` patches count too. Dunder methods are called by
Python itself and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src", "tests", "scripts", "perfbench")
TRACED_LISTS = ("SPANS", "HOT", "HOT_ITER")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    # A string annotation such as "ExplicitDist | None" uses what it parses to.
    for annotation in filter(None, map(_annotation, ast.walk(tree))):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _referenced(ast.parse(part.value, mode="eval"))
    return names


def _traced(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TRACED_LISTS):
            for _, qualname, _ in ast.literal_eval(node.value):
                names.update(qualname.split("."))
    return names


def test_every_definition_is_referenced():
    defined = set().union(*map(_defined, map(_parse, (ROOT / "src" / "pivotal").glob("*.py"))))
    used = _traced(_parse(ROOT / "perfbench" / "tracing.py"))
    for folder in FOLDERS:
        for path in (ROOT / folder).rglob("*.py"):
            used |= _referenced(_parse(path))
    assert sorted(defined - used) == []
