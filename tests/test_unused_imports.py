"""No package module or test file imports a name it never uses.

The package's `__init__` is exempt: its imports are the package's re-exports. A name
counts as used when it appears anywhere in the module as an identifier, so
an import kept only for a removed annotation or a deleted helper fails here.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gapeig"
MODULES = (sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from typing import Callable\nimport numpy as np\nnp.zeros(1)\n") \
        == ["line 1: Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
