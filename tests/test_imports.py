"""Module-level imports: every one is read by its own module, and the
sampler modules stay clear of the oracle's layers."""

import ast
import re
from pathlib import Path

import pytest

import irrlangevin

SRC = Path(irrlangevin.__file__).parent
# the oracle's layers and the front ends, none of which a sampler may load
SAMPLER_FORBIDDEN = {"observables", "spectral_oracle", "analysis", "benchmark",
                     "cli"}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _module_level_import_nodes(tree: ast.Module):
    """The imports outside any function or class, those under a
    module-level ``if`` or ``try`` included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += ast.iter_child_nodes(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _module_level_imports(tree: ast.Module):
    """(name bound, line) of the module-level imports."""
    for node in _module_level_import_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _package_modules_imported(tree: ast.Module):
    """(package module, line) of the module-level imports of this package,
    absolute (``irrlangevin.x``) or relative (``.x``, ``from . import x``)."""
    for node in _module_level_import_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            base = ("irrlangevin." * bool(node.level)
                    + (node.module or "")).rstrip(".")
            names = ([f"{base}.{alias.name}" for alias in node.names]
                     if base == "irrlangevin" else [base])
        for name in names:
            parts = name.split(".")
            if parts[0] == "irrlangevin" and len(parts) > 1:
                yield parts[1], node.lineno


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


def _module_level_constants(tree: ast.Module):
    """(name, line) of the UPPER_CASE names assigned outside any function or
    class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    yield name.id, node.lineno


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _package_loads(trees: dict[str, ast.Module]) -> set[str]:
    """Names loaded, and attributes loaded by name, in any of the modules."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_module_level_constant_is_read():
    # a constant nothing reads names a setting that no longer acts; a read is
    # a load of the name, or of an attribute by that name, in any module
    trees = _package_trees()
    read = _package_loads(trees)
    constants = [(name, f"{file}:{line} {name}")
                 for file, tree in trees.items()
                 for name, line in _module_level_constants(tree)]
    assert constants
    unread = [where for name, where in constants if name not in read]
    assert not unread, f"constants nothing reads: {unread}"


def _defined_functions(tree: ast.Module):
    """(name, line) of the private module-level functions and of the
    methods that are not dunders."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno


def test_every_helper_and_method_is_referenced():
    # a helper or method that nothing in the package names is dead code left
    # behind by a change; a reference is a load of the name, or of an
    # attribute by that name, in any module
    trees = _package_trees()
    read = _package_loads(trees)
    defined = [(name.rsplit(".", 1)[-1], f"{file}:{line} {name}")
               for file, tree in trees.items()
               for name, line in _defined_functions(tree)]
    assert defined
    unreferenced = [where for name, where in defined if name not in read]
    assert not unreferenced, f"functions nothing references: {unreferenced}"


@pytest.mark.parametrize("name", ["sde_sim.py", "mc_variance.py"])
def test_samplers_import_no_oracle_layer(name):
    # the samplers take a callable f; importing observables would also load
    # spectral_oracle, which observables imports
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{name}:{line} {module}"
             for module, line in _package_modules_imported(tree)
             if module in SAMPLER_FORBIDDEN]
    assert not found, f"sampler imports an oracle layer: {found}"
