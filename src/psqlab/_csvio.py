"""The one CSV writer behind every sidecar."""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

_CHUNK_ROWS = 1 << 16


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a header row, then row i holding element i of every column.

    Each cell is repr() of a .tolist() value: shortest round-trip floats and
    exact Python ints, also those above 2^63 from object arrays.  Numbers
    never need quoting, so body rows are joined in csv's default dialect
    (CRLF line ends), byte for byte what csv.writer writes for those cells.
    Rows are formatted a fixed-size chunk at a time.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    sep, eol = csv.excel.delimiter, csv.excel.lineterminator
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, rows, _CHUNK_ROWS):
            cells = [map(repr, c[lo : lo + _CHUNK_ROWS].tolist()) for c in columns]
            fh.write("".join([sep.join(row) + eol for row in zip(*cells)]))
