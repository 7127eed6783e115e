"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import marketfacts

MODULES = sorted(
    path for path in Path(marketfacts.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """(name bound by an import, line) for each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []
