"""Every name a module imports is used in that module: the package's
modules, the demos and the tests. Every public function or class of the
package is used in the package or exported by it, and every private
function, class, constant or method is used in the package. Importing the
command line leaves out the process pool. Only ``ingest`` reads files and
only ``output`` writes them.

``__init__.py`` is left out of the first check: its imports are the
package's exports.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def referenced_names(tree):
    """Names a module reads, reads as attributes or imports from elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


PACKAGE_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                 for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("module", [name for name in PACKAGE_TREES if name != "__init__.py"])
def test_no_dead_public_names(module):
    # a public name that only tests call is API that nothing serves
    used = {name for tree in PACKAGE_TREES.values() for name in referenced_names(tree)}
    dead = [f"line {node.lineno}: {node.name}" for node in PACKAGE_TREES[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]
    assert dead == []


def private_definitions(tree):
    """(line, name) of each private function, class or constant a module
    defines at its top level and of each private method of its classes;
    ``__dunder__`` names are Python's, not the package's."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [(t.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [(node.lineno, node.target.id)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.lineno, node.name)]
            if isinstance(node, ast.ClassDef):
                targets += [(item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        else:
            targets = []
        yield from ((line, name) for line, name in targets
                    if name.startswith("_") and not name.endswith("__"))


def read_names(tree):
    """The names of :func:`referenced_names` less each assignment's target:
    binding a name does not read it."""
    names = Counter(referenced_names(tree))
    names.subtract(node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    return +names


@pytest.mark.parametrize("module", PACKAGE_TREES)
def test_no_dead_private_names(module):
    # a private helper that loses its last caller would otherwise stay behind
    used = {name for tree in PACKAGE_TREES.values() for name in read_names(tree)}
    dead = [f"line {line}: {name}" for line, name in private_definitions(PACKAGE_TREES[module])
            if name not in used]
    assert dead == []


def test_only_ingest_and_output_open_files():
    # ingest decodes every input file and output fixes every written byte;
    # a call of open(), io.open(), os.open() or path.open() counts
    calls = [f"{module}:{node.lineno}" for module, tree in PACKAGE_TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "open"]
    assert [call for call in calls if not call.startswith(("ingest.py:", "output.py:"))] == []
    assert calls  # the check still sees the two modules' own calls


# what ``concurrent.futures.ProcessPoolExecutor`` loads; only an ensemble
# with more than one worker needs it
POOL_MODULES = ["concurrent.futures", "multiprocessing", "socket", "subprocess", "logging"]


def test_cli_import_leaves_out_the_process_pool():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    code = f"import sys, marketfacts.cli; print([m for m in {POOL_MODULES!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
