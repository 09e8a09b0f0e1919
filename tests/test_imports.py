"""Every module-level import of the package is read by its own module."""

import ast
from pathlib import Path

import irrlangevin

SRC = Path(irrlangevin.__file__).parent


def _module_level_imports(tree: ast.Module):
    """(name bound, line) of the imports outside any function or class,
    those under a module-level ``if`` or ``try`` included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += ast.iter_child_nodes(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, and the entries of ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_module_level_import_is_read():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _module_level_imports(tree)
                   if name not in read]
    assert not unused, f"imports nothing reads: {sorted(unused)}"
