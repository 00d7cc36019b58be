"""No module of the package imports a name it never uses.

pyflakes' F401 rule, reduced to what this package needs: a name an import
binds must be read in the scope that imports it (the module, or the function
of a local import). An import marked `# noqa: F401` is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coocmap"
MODULES = sorted(SRC.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name its scope never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    scope_of = {}  # node -> the innermost function around it, or the module

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            scope_of[child] = scope
            visit(child, child if isinstance(child, FUNCTIONS) else scope)

    visit(tree, tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        used = {n.id for n in ast.walk(scope_of[node]) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_and_honours_noqa():
    source = (
        "import json\n"
        "import os\n"
        "from .a import b, c  # noqa: F401\n"
        "from .d import (  # noqa: F401\n"
        "    e,\n"
        ")\n"
        "def f():\n"
        "    import sys\n"
        "    from .g import h\n"
        "    return h\n"
        "x = os.sep\n"
    )
    assert unused_imports(source) == ["1: json", "8: sys"]
