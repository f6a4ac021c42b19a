"""Spans and counts for the traced run, recorded from outside liqlab.

`instrument` replaces each public function in `TARGETS` by a wrapper, in
every liqlab module that binds the function's name (the module that looks
it up, e.g. `liqlab.bsde.psi_matrix` for the hedge inversion).  A wrapper
records a span (name, start, end, parent) and reads exact work counts
from the return value.  Spans stay in memory until `summarize` reduces
them at the end of the run.

The program is single-threaded with no queue, so there is no wait time
to record: a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

ROOT_SPAN = "workload"


class Stopwatch:
    """Times the workload's region in an untraced run."""

    seconds = float("nan")

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # exact work counts, summed
        self.maxima = {}         # exact work counts, maxima
        self._open = []
        self._raised = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, time.perf_counter(), None, parent])
        return index

    def close(self, index: int, exc: BaseException | None) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()
        if exc is not None and not any(exc is seen for seen in self._raised):
            self._raised.append(exc)     # counted once, in the span that raised it
            self.counts[self.spans[index][0].split(".")[0] + ".errors"] += 1

    def note_max(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def root(self) -> "_RootSpan":
        return _RootSpan(self)


class _RootSpan(Stopwatch):
    """The workload's region as the root span of a traced run."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def __enter__(self):
        self._index = self.recorder.open(ROOT_SPAN)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.recorder.close(self._index, exc)
        _, start, end, _ = self.recorder.spans[self._index]
        self.seconds = end - start


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _count_noise(rec: Recorder, noise) -> None:
    rec.counts["noise.bytes_computed"] += _nbytes(noise.db, noise.dw)


def _count_bundle(rec: Recorder, b) -> None:
    rec.counts["market.bundle_bytes_computed"] += _nbytes(b.s, b.u, b.v, b.sigma, b.m, b.rv)


def _count_solve(rec: Recorder, sol) -> None:
    diag = sol.diagnostics
    rec.counts["bsde.regressed_path_steps"] += int(diag.alive_counts.sum())
    rec.counts["bsde.picard_iters"] += sum(len(d) for d in diag.picard_deltas)
    rec.counts["bsde.smallness_exceeded"] += not diag.smallness_ok
    rec.note_max("bsde.max_cond", float(diag.cond_numbers.max(initial=0.0)))
    _count_solution_bytes(rec, sol)


def _count_solution_bytes(rec: Recorder, sol) -> None:
    rec.note_max("bsde.solution_bytes_computed",
                 _nbytes(sol.y, sol.z, sol.xi, sol.tau_index, sol.x, sol.chi1, sol.chi2))


# (home module, function, span name, count hook)
TARGETS = (
    ("liqlab.noise", "draw_noise", "noise.draw_noise", _count_noise),
    ("liqlab.market", "simulate_paths", "market.simulate_paths", _count_bundle),
    ("liqlab.order_book", "impacted_quote_path", "order_book.impacted_quote_path", None),
    ("liqlab.ledger", "cash_decomposed", "ledger.cash_decomposed", None),
    ("liqlab.swaps", "swap_price_paths", "swaps.swap_price_paths", None),
    ("liqlab.swaps", "psi_matrix", "swaps.psi_matrix", None),
    ("liqlab.swaps", "invert_hedge", "swaps.invert_hedge", None),
    ("liqlab.bsde", "solve_quadratic_bsde", "bsde.solve_quadratic_bsde", _count_solve),
    ("liqlab.bsde", "hedge_from_solution", "bsde.hedge_from_solution", _count_solution_bytes),
    ("liqlab.replication", "replication_cost_curve", "replication.replication_cost_curve", None),
    ("liqlab.replication", "impact_error", "replication.impact_error", None),
    ("liqlab.replication", "h_prime_zero", "replication.h_prime_zero", None),
    ("liqlab.market", "export_paths_csv", "cli.export_paths_csv", None),
    ("liqlab.ledger", "export_ledger_csv", "cli.export_ledger_csv", None),
    ("liqlab.cli", "main", "cli.main", None),
)


def _wrap(rec: Recorder, fn, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(index, exc)
            raise
        rec.close(index, None)
        rec.counts[name + ".calls"] += 1
        if count is not None:
            count(rec, result)
        return result

    return traced


def instrument(rec: Recorder) -> None:
    """Wrap every target in every loaded liqlab module, for the rest of the process."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "liqlab" or key.startswith("liqlab."))]
    for home, attr, name, count in TARGETS:
        if home not in sys.modules:
            continue
        original = getattr(sys.modules[home], attr)
        wrapper = _wrap(rec, original, name, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def summarize(rec: Recorder) -> dict:
    """Per span name: inclusive seconds `.s`, self seconds `.self_s`; plus the counts."""
    child_time = [0.0] * len(rec.spans)
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _), inner in zip(rec.spans, child_time):
        out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - inner)
    out.update(rec.counts)
    out.update(rec.maxima)
    out["trace.spans"] = len(rec.spans)
    return out
