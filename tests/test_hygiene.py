"""Static hygiene of the package, read from its syntax trees: every import
is used, every private function is called from somewhere in the package,
and so is every private module-level class and constant.  ``__init__``
re-exports names, so its imports are exempt."""

import ast
from pathlib import Path

import comcat

PACKAGE = Path(comcat.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _references(tree) -> set[str]:
    """Every name read as a variable or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_unused_import():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {b}" for b in _bound_names(node) if b not in used]
    assert unused == []


def test_every_private_function_is_called():
    trees = _trees()
    used = set().union(*(_references(t) for t in trees.values()))
    private = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert private == []


def _module_level_names(tree):
    """Names bound by the module's own statements: classes, functions and
    assignment targets, tuple targets included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_private_module_level_name_is_read():
    trees = _trees()
    used = set().union(*(_references(t) for t in trees.values()))
    unread = [
        f"{name}: {bound}"
        for name, tree in trees.items()
        for bound in _module_level_names(tree)
        if bound.startswith("_") and not bound.startswith("__") and bound not in used
    ]
    assert unread == []
