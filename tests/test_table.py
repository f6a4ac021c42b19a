import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from liqlab import ScenarioConfig, simulate_paths, table
from liqlab.ledger import Strategy, cash_decomposed, export_ledger_csv
from liqlab.market import export_paths_csv
from liqlab.table import grid_index, write_table

from conftest import traced_peak


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


# Labels that the default csv dialect quotes, and some it leaves bare.
label = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "x\r\ny", "line\nbreak", "cr\r", "", "strategy_0"]),
    st.text(st.sampled_from(list('ab ,"\r\n;\'')), max_size=6))
cell_pools = {
    "float": st.lists(st.one_of(st.sampled_from([-0.0, np.inf, -np.inf, np.nan, 5e-324]),
                                st.floats()), min_size=1, max_size=8),
    "int": st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8),
    "bool": st.lists(st.booleans(), min_size=1, max_size=8),
    "label": st.lists(label, min_size=1, max_size=8),
    "object": st.lists(label, min_size=1, max_size=8),
}
column = st.tuples(st.sampled_from(sorted(cell_pools)).flatmap(
    lambda kind: st.tuples(st.just(kind), cell_pools[kind])),
    st.sampled_from(["full", "per row", "per column"]))


@given(columns=st.lists(column, min_size=2, max_size=4),
       header=st.lists(label, min_size=4, max_size=4),
       width=st.integers(1, 3), blocks=st.sampled_from([0, 1, 2]), offset=st.integers(-1, 1),
       seed=st.integers(0, 2**32 - 1))
def test_matches_csv_writer_on_drawn_tables(columns, header, width, blocks, offset, seed):
    """Floats, ints, bools and quoted labels, broadcast as (n, 1) or (1, m),
    over leading row counts next to a block boundary (or 1 to 3 rows)."""
    per_block = table._BLOCK_ROWS // width
    n = blocks * per_block + offset if blocks else offset + 2
    shapes = {"full": (n, width), "per row": (n, 1), "per column": (1, width)}
    rng = np.random.default_rng(seed)
    arrays = []
    for (kind, pool), layout in columns:
        pool = np.array(pool, dtype=object if kind == "object" else None)
        arrays.append(pool[rng.integers(len(pool), size=shapes[layout])])
    header = header[:len(arrays)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    rows = zip(*(np.broadcast_to(a, shape).ravel() for a in arrays))
    with tempfile.TemporaryDirectory() as tmp:
        write_table(Path(tmp) / "new.csv", header, arrays)
        reference_table(Path(tmp) / "ref.csv", header, rows)
        data = (Path(tmp) / "new.csv").read_bytes()
        assert data == (Path(tmp) / "ref.csv").read_bytes()


class TestWriterMemory:
    """A write holds one block of about 1,024 rows of cells and text, never a
    table-sized array.  At 2,000 paths x 64 steps one whole (2,000, 65) float
    array is 0.99 MiB, so a writer that builds one (a zero swap leg, say)
    breaks the 1 MiB bound.  (Traced, the writes at 8,000 paths took about 40 s
    on a 2-core VM, against 9 s here.)"""

    def test_exports_peak_under_one_mib(self, tmp_path):
        bundle = simulate_paths(ScenarioConfig().model_params(),
                                ScenarioConfig().time_grid(), 2000, seed=5)
        assert bundle.n_nodes == 65
        x = np.random.default_rng(5).normal(0, 2, size=(bundle.n_paths, bundle.n_nodes))
        strategy = Strategy(x=x)
        report = cash_decomposed(strategy, bundle)
        _, peak = traced_peak(lambda: export_paths_csv(bundle, tmp_path / "paths.csv"))
        assert peak < 2 ** 20
        _, peak = traced_peak(
            lambda: export_ledger_csv(bundle, strategy, report, tmp_path / "ledger.csv"))
        assert peak < 2 ** 20
