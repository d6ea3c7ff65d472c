"""The one CSV writer behind every sidecar: each chunk of rows is formatted
by one %-template in C."""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

_CHUNK_ROWS = 1 << 12


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a header row, then row i holding element i of every column.

    Each cell is %r of a .tolist() value, which is its repr(): shortest
    round-trip floats and exact Python ints, also those above 2^63 from
    object arrays.  Numbers never need quoting, so body rows are written in
    csv's default dialect (CRLF line ends), byte for byte what csv.writer
    writes for those cells.  A chunk of _CHUNK_ROWS rows is one %-template
    applied to its cells, interleaved column by column: formatted in C.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    row = csv.excel.delimiter.join(["%r"] * len(columns)) + csv.excel.lineterminator
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, rows, _CHUNK_ROWS):
            n = min(rows - lo, _CHUNK_ROWS)
            cells = [None] * (n * len(columns))
            for j, c in enumerate(columns):
                cells[j :: len(columns)] = c[lo : lo + n].tolist()
            fh.write((row * n) % tuple(cells))
