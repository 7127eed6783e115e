"""The byte-stable writers, and the rule that only ``marketfacts.output``
writes files."""

import ast
import errno
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import marketfacts
from marketfacts import output
from marketfacts.errors import UnwritableOutput
from marketfacts.output import write_columns, write_json, write_table

PACKAGE = Path(marketfacts.__file__).parent


def test_write_columns_exact_text(tmp_path):
    path = tmp_path / "new" / "cols.csv"
    floats = np.array([0.1, -0.0, 5e-324, 1e16])
    ints = np.array([7, -2, 2**62, 0], dtype=np.int64)
    write_columns(path, ("k", "x", "n"), range(4), floats, ints)
    assert path.read_bytes() == (
        b"k,x,n\n"
        b"0,0.1,7\n"
        b"1,-0.0,-2\n"
        b"2,5e-324,4611686018427387904\n"
        b"3,1e+16,0\n"
    )


def test_write_columns_memory_does_not_grow_with_rows(tmp_path):
    # a range and an array are converted a block of rows at a time
    def peak(n):
        normals = np.random.default_rng(0).standard_normal(n)
        tracemalloc.start()
        try:
            write_columns(tmp_path / "cols.csv", ("k", "x"), range(n), normals)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400_000) <= peak(100_000) + 2**20


def test_directory_that_cannot_be_made_names_its_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(UnwritableOutput) as exc:
        write_json(blocker / "out" / "doc.json", {})
    assert str(exc.value) == f"{blocker / 'out'}: Not a directory"


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("write", [
    lambda path: write_columns(path, ("x",), [0.5]),
    lambda path: write_table(path, [["a"]]),
    lambda path: write_json(path, {}),
], ids=["columns", "table", "json"])
def test_failed_write_names_its_file(tmp_path, monkeypatch, write):
    monkeypatch.setattr(output, "open", lambda *args, **kwargs: _FullDisk(), raising=False)
    path = tmp_path / "f.csv"
    with pytest.raises(UnwritableOutput) as exc:
        write(path)
    assert str(exc.value) == f"{path}: No space left on device"


def _file_writes(tree):
    """(line, what) of each call that writes a file: ``open`` with a mode
    that is not a read-only constant, ``json.dump`` or ``csv.writer``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                    yield node.lineno, f"open(mode={ast.unparse(mode)})"
        elif name in ("dump", "writer"):
            yield node.lineno, ast.unparse(func)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "output.py"),
    ids=lambda p: p.name,
)
def test_only_output_module_writes_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"line {line}: {what}" for line, what in _file_writes(tree)] == []
