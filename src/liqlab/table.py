"""The one CSV table writer behind every file the package exports.

A table is a header plus columns given as arrays that broadcast to one
shape; rows run over that shape in C order, so a path-major table passes
(n_paths, 1) and (1, n_nodes) index columns and builds nothing full-size
for them.  A row spec, `%.17g` per float column (a lossless round trip,
the bytes of `format(v, ".17g")`) and `%s` per other column, ending in
CRLF, formats each row with one `%`; a block of rows is joined and written
at once.  A header or label cell holding a comma, quote, CR or LF is
quoted as `csv` quotes it.
"""

import math

import numpy as np

# Leading-axis slices of about this many rows are formatted at a time, so
# the memory a write needs does not grow with the table.
_BLOCK_ROWS = 1024


def grid_index(n_paths: int, times: np.ndarray) -> list:
    """The (path, step, t) index columns of a path-major table on a grid."""
    return [np.arange(n_paths)[:, None], np.arange(len(times))[None, :], times[None, :]]


def write_table(path, header, columns) -> None:
    """Write `header` and one row per element of the broadcast columns."""
    shape = np.broadcast_shapes(*(np.shape(col) for col in columns))
    columns = [np.broadcast_to(col, shape) for col in columns]
    block = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    spec = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, shape[0], block):
            cells = [col[start:start + block].ravel().tolist() for col in columns]
            cells = [map(_quote, c) if col.dtype.kind in "USO" else c
                     for col, c in zip(columns, cells)]
            # one `%` per row: a block-sized `%` result is shrunk by realloc, and
            # a small leftover cached atop the heap keeps freed arrays resident
            fh.write("".join(map(spec.__mod__, zip(*cells))))


def _quote(cell) -> str:
    cell = str(cell)
    return '"%s"' % cell.replace('"', '""') if any(c in cell for c in ',"\r\n') else cell
