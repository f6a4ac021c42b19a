"""The one CSV table writer behind every file the package exports.

A table is a header plus columns given as arrays that broadcast to one
shape; rows run over that shape in C order.  A path-major table over the
time grid therefore passes per-path data as (n_paths, n_nodes) arrays and
its index columns as (n_paths, 1) and (1, n_nodes) arrays, so nothing of
full size is built for them.  Floats are written with 17 significant
digits (a lossless round trip), integers and labels as `str` renders them,
in the default `csv` dialect.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat

import numpy as np

# Leading-axis slices of about this many rows are formatted at a time, so
# the memory a write needs does not grow with the table.
_BLOCK_ROWS = 1024


def grid_index(n_paths: int, times: np.ndarray) -> list:
    """The (path, step, t) index columns of a path-major table on a grid."""
    return [np.arange(n_paths)[:, None], np.arange(len(times))[None, :], times[None, :]]


def write_table(path, header, columns) -> None:
    """Write `header` and one row per element of the broadcast columns."""
    columns = [np.asarray(col) for col in columns]
    shape = np.broadcast_shapes(*(col.shape for col in columns))
    columns = [np.broadcast_to(col, shape) for col in columns]
    block = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, shape[0], block):
            writer.writerows(zip(*(_cells(col[start:start + block].ravel()) for col in columns)))


def _cells(values: np.ndarray) -> list:
    if values.dtype.kind == "f":
        return list(map(format, values.tolist(), repeat(".17g")))
    return values.tolist()
