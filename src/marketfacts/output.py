"""The byte-stable output format: the one module that opens files to write.

* Number columns: each cell is the ``repr`` of a Python ``float`` or ``int``
  (for a float, the shortest string that reads back to the same double),
  cells joined by commas, rows ended by ``\\n``.
* ``table.csv``: ``csv.writer``, because its labels and error cells may
  hold commas or quotes.
* JSON: ``indent=2``, sorted keys and a trailing newline.

Nothing here depends on the clock, so the same data give the same bytes.
Each writer creates the file's directory, and an ``OSError`` from creating
it or from writing the file ends as an ``UnwritableOutput`` naming the path.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os

import numpy as np

from .errors import UnwritableOutput

# rows of a number column converted and written at a time
_BLOCK = 4096


@contextlib.contextmanager
def _create(path):
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise UnwritableOutput(f"{exc.filename or path}: {exc.strerror or exc}") from exc


def write_columns(path, header, *columns) -> None:
    """Write equal-length number columns under a header row of names.

    Each column is a sequence that slices, such as an array or a ``range``.
    The rows are converted and written 4096 at a time, so no whole-column
    list is built; ``tolist()`` makes every cell a Python number, so a numpy
    scalar's repr (``np.float64(0.1)``) never reaches the file, and the rows
    are joined in C, faster than formatting each row in Python.
    """
    n = min(map(len, columns))
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK):
            cells = [map(repr, np.asarray(col[start:start + _BLOCK]).tolist())
                     for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_table(path, rows) -> None:
    """Write rows of strings as CSV, quoting cells that need it."""
    with _create(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_json(path, doc) -> None:
    with _create(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
