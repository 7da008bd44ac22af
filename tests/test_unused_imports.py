"""Every imported name in the package and its tests is read somewhere.

An import binds names in the scope it sits in: a module-level import is
read anywhere in the module, one inside a function only in that function
(nested definitions included), which is where the CLI's lazy imports
live.  A name counts as read when it appears as a loaded, or deleted,
bare name in that scope, or when the module lists it in `__all__`.
`from __future__` imports and star imports bind nothing to check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "mcbrick").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _bound(node):
    """(name, line) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    out = []
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or (alias.name.split(".")[0] if isinstance(node, ast.Import)
                                else alias.name)
        out.append((name, node.lineno))
    return out


def _exported(tree):
    """Strings listed in a module-level `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return set()


def _reads(scope):
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))}


def _scope_imports(scope):
    """Import statements whose bindings belong to `scope` itself, not to a nested function."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source, filename="<source>"):
    """Sorted (line, name) of the imported names nothing in their scope reads."""
    tree = ast.parse(source, filename=filename)
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    exported = _exported(tree)
    out = []
    for scope in scopes:
        reads = _reads(scope) | (exported if scope is tree else set())
        for node in _scope_imports(scope):
            out += [(line, name) for name, line in _bound(node) if name not in reads]
    return sorted(out)


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_every_import_is_read(path):
    unused = unused_imports(path.read_text(), str(path))
    assert unused == [], ", ".join(f"line {line}: {name}" for line, name in unused)


def test_scan_sees_scopes_and_all():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .core import a, b\n"
        "__all__ = ['a']\n"
        "\n"
        "\n"
        "def f():\n"
        "    import json\n"
        "    from .x import y\n"
        "    return np.zeros(1), y\n"
        "\n"
        "\n"
        "def g():\n"
        "    return json\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "b"), (8, "json")]
