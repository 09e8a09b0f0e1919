"""Line coverage of the package by the test suite, with the standard library.

Runs pytest in this process under ``sys.settrace``, recording the lines
executed in ``src/irrlangevin`` alone, then prints, for each function of
the package, its lines that never ran.  A line inside a ``raise``
statement is not listed: refusals are covered by tests that name them.
Code run in a subprocess (the fresh-process memory probes) is not traced.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

The suite takes about 50 s on a 2-core VM under the tracer.  The exit code
is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "irrlangevin"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold bytecode in any code object of ``path`` but the
    module's own."""
    lines, stack = set(), list(compile(path.read_text(), str(path), "exec").co_consts)
    while stack:
        code = stack.pop()
        if hasattr(code, "co_lines"):
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack.extend(code.co_consts)
    return lines


def function_bodies(path: Path) -> tuple[list[tuple[str, int, int]], set[int]]:
    """([(qualified name, first body line, last line)], the lines of every
    ``raise``); a body starts after its docstring, and a nested function is
    listed apart from the function around it."""
    functions, raises = [], set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (len(body) > 1 and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)):
                    body = body[1:]  # the docstring
                functions.append((name[:-1], body[0].lineno, child.end_lineno))
            if isinstance(child, ast.Raise):
                raises.update(range(child.lineno, child.end_lineno + 1))
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return functions, raises


def main(args: list[str]) -> int:
    import pytest

    root = str(PACKAGE)
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            return local(frame, event, arg)
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - ran[str(path)]
        functions, raises = function_bodies(path)
        for name, first, last in functions:
            inner = [(f, l) for n, f, l in functions
                     if n.startswith(name + ".") and first <= f <= last]
            lines = sorted(line for line in missed - raises
                           if first <= line <= last
                           and not any(f <= line <= l for f, l in inner))
            if lines:
                total += len(lines)
                print(f"{path.name}:{name}: {', '.join(map(str, lines))}")
    print(f"{total} unexecuted non-raise lines in {PACKAGE.name}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
