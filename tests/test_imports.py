"""Every name a module imports is used in that module: the package's
modules, the demos and the tests.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import marketfacts

PACKAGE = Path(marketfacts.__file__).parent
REPO = Path(__file__).resolve().parent.parent

# package modules keep their bare file name as the test id
MODULES = {path.name: path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
for folder in ("demos", "tests"):
    MODULES.update((f"{folder}/{path.name}", path) for path in sorted((REPO / folder).glob("*.py")))


def imported_names(tree):
    """(name bound by an import, line) for each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    path = MODULES[module]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []
