import csv

import numpy as np

from liqlab import table
from liqlab.table import grid_index, write_table


def reference_table(path, header, rows):
    """Per-cell writer: floats at 17 significant digits, other cells as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(c, ".17g") if isinstance(c, float) else c for c in row])


def awkward_floats(rng, n):
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[:6] = [-0.0, 1e-300, -2.5, 5e-324, np.inf, np.nan]
    return values


def test_flat_columns_match_per_cell_writer(tmp_path):
    n = table._BLOCK_ROWS + 5
    rng = np.random.default_rng(0)
    ints = np.arange(n) - 7
    floats = awkward_floats(rng, n)
    labels = [f"strategy_{i}" for i in range(n)]
    write_table(tmp_path / "new.csv", ["i", "label", "value"], [ints, labels, floats])
    reference_table(tmp_path / "ref.csv", ["i", "label", "value"], zip(ints, labels, floats))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == n + 1 and b"\n" not in data.replace(b"\r\n", b"")


def test_grid_table_matches_per_cell_writer(tmp_path):
    n_nodes = 7  # does not divide the block size
    n_paths = 2 * (table._BLOCK_ROWS // n_nodes) + 3
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, n_nodes)
    values = awkward_floats(rng, n_paths * n_nodes).reshape(n_paths, n_nodes)
    write_table(tmp_path / "new.csv", ["path", "step", "t", "X"],
                [*grid_index(n_paths, times), values])
    reference_table(tmp_path / "ref.csv", ["path", "step", "t", "X"],
                    ([p, k, times[k], values[p, k]]
                     for p in range(n_paths) for k in range(n_nodes)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
