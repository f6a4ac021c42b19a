"""The liqlab benchmark.

    python3 benchmarks/run.py --workload replicate-20k --seed 0 --seconds 40 --trace 0

Runs one workload (see workloads.py) for about `--seconds` seconds, one
fresh process per repetition, one repetition at a time, and checks every
repetition's outputs.  A closed loop of one client: the next repetition
starts when the previous one has ended, and none starts that would end
past the time budget.  A few processes that only set up add samples to
`setup_s`.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
traced repetitions alternate with untraced ones, whose difference is the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import PINNED_ENV, ROOT

SETUP_SAMPLES = 8        # set-up-only processes per run, besides one per repetition
CHILD_TIMEOUT_S = 150

END_TO_END = {"run_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "noise.draw_noise.s": "s", "noise.draw_noise.calls": "count",
    "noise.bytes_computed": "bytes",
    "market.simulate_paths.self_s": "s", "market.simulate_paths.calls": "count",
    "market.bundle_bytes_computed": "bytes",
    "order_book.impacted_quote_path.s": "s", "order_book.impacted_quote_path.calls": "count",
    "ledger.cash_decomposed.self_s": "s", "ledger.cash_decomposed.calls": "count",
    "swaps.swap_price_paths.s": "s",
    "swaps.psi_matrix.s": "s", "swaps.psi_matrix.calls": "count",
    "swaps.invert_hedge.s": "s", "swaps.invert_hedge.calls": "count",
    "bsde.solve_quadratic_bsde.s": "s", "bsde.solve_quadratic_bsde.calls": "count",
    "bsde.regressed_path_steps": "count", "bsde.picard_iters": "count",
    "bsde.smallness_exceeded": "count", "bsde.max_cond": "1",
    "bsde.solution_bytes_computed": "bytes",
    "bsde.hedge_from_solution.self_s": "s", "bsde.hedge_from_solution.calls": "count",
    "replication.replication_cost_curve.self_s": "s",
    "replication.impact_error.s": "s", "replication.h_prime_zero.s": "s",
    "cli.main.self_s": "s", "cli.export_paths_csv.s": "s", "cli.export_ledger_csv.s": "s",
    "cli.rows_written": "count", "cli.bytes_written": "bytes",
    "config.resolve.s": "s",
    **{f"{layer}.errors": "count" for layer in (
        "noise", "market", "order_book", "ledger", "swaps", "bsde", "replication", "cli",
        "config")},
    "workload.self_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "check.ref_max_rel_err": "1", "check.ref_bitwise_equal": "1",
}


class Repetition:
    """One child process: its parsed result, or why it failed."""

    def __init__(self, spec: dict, env: dict):
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                               json.dumps(spec)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            self.result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            self.result = {}
        self.traced = spec["trace"]
        self.failures = list(self.result.get("failures", []))
        if proc.returncode != 0:
            self.failures.append(self.result.get("error", f"exit code {proc.returncode}"))
            sys.stderr.write(proc.stderr)

    @property
    def ok(self) -> bool:
        return not self.failures


def _env_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"])}


def _counts(rep: Repetition) -> dict:
    return {k: v for k, v in rep.result["layers"].items() if not k.endswith((".s", ".self_s"))}


def _timing_line(name: str, unit: str, values) -> str:
    values = sorted(values)
    n = len(values)
    # highest percentile with at least ten samples beyond it, if above the median
    tail = (f"p{100 * (n - 10) / n:.0f} = {values[n - 11]:.6g} {unit}" if n >= 20
            else "no percentile above the median has 10 samples beyond it")
    return f"{name:<18} {statistics.median(values):.6g} {unit:<6} median of n={n}; {tail}"


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            n_paths: int | None = None, n_steps: int | None = None):
    """Run the benchmark; returns (report lines, result object)."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    tiny = n_paths is not None or n_steps is not None
    reference = None
    if not tiny:
        table = json.loads(Path(__file__).with_name("reference.json").read_text())
        reference = table[workload_name][seed % workloads.SEED_SPACE]
    env = {**os.environ, **PINNED_ENV}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    spec = {"workload": workload_name, "seed": seed, "work_dir": work_dir,
            "n_paths": n_paths, "n_steps": n_steps}

    start = time.perf_counter()
    try:
        setups = [Repetition({**spec, "setup_only": True, "trace": False}, env)
                  for _ in range(SETUP_SAMPLES)]
        for rep in setups:
            if not rep.ok:
                raise RuntimeError(f"set-up failed: {rep.failures}")
        reps: list[Repetition] = []
        rep_start = time.perf_counter()
        while True:
            reps.append(Repetition({**spec, "setup_only": False,
                                    "trace": trace and len(reps) % 2 == 1}, env))
            now = time.perf_counter()
            both_kinds = not trace or len(reps) >= 2
            if both_kinds and now + (now - rep_start) / len(reps) > start + seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    first = next((r for r in reps if r.ok), None)
    first_traced = next((r for r in reps if r.ok and r.traced), None)
    for rep in reps:
        if rep.ok and rep.result["numbers"] != first.result["numbers"]:
            rep.failures.append("outputs differ between repetitions of one input")
        if rep.ok and rep.traced and _counts(rep) != _counts(first_traced):
            rep.failures.append("exact counts differ between traced repetitions")
    good = [r for r in reps if r.ok]
    failed = len(reps) - len(good)
    untraced = [r.result["run_s"] for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no repetition of a kind succeeded: {reps[0].failures}")

    ref_err, ref_equal = -1.0, 0
    if reference is not None:
        compared = [workloads.compare(r.result["numbers"], reference) for r in good]
        ref_err = max(err for err, _ in compared)
        ref_equal = sum(equal for _, equal in compared)
    size = (n_paths or workload.n_paths) * (n_steps or workload.n_steps)
    run_s = statistics.median(untraced)
    peak_rss_mb = statistics.median([r.result["peak_rss_mb"] for r in good])
    setup_values = [r.result["setup_s"] for r in setups + good]
    lines = [
        f"liqlab benchmark: workload {workload_name}, seed {seed} "
        f"(liqlab seed {workload.liqlab_seed(seed)}), {n_paths or workload.n_paths} paths x "
        f"{n_steps or workload.n_steps} steps, trace {int(trace)}",
        "env " + json.dumps(_env_info(), sort_keys=True),
        _timing_line("run_s", "s", untraced),
        f"{'path_steps_per_s':<18} {size / run_s:.6g} 1/s    n_paths x n_steps / median run_s",
        f"{'peak_rss_mb':<18} {peak_rss_mb:.6g} MB     "
        f"median of n={len(good)}, one process per repetition",
        _timing_line("setup_s", "s", setup_values),
        f"{'fail_ratio':<18} {failed / len(reps):.6g} 1      {failed} failed of "
        f"{len(reps)} attempted",
        f"{'check.ref':<18} max rel err {ref_err:.3g}; {ref_equal} of {len(good)} "
        "bitwise equal to the reference outputs",
        "repetitions run_s: " + ", ".join(
            f"{'T' if r.traced else 'U'} {r.result.get('run_s', float('nan')):.4g}"
            for r in reps),
    ]
    for rep in reps:
        if rep.failures:
            lines.append(f"failed repetition: {'; '.join(rep.failures)}")

    if not trace:
        metrics = {
            "run_s": run_s,
            "path_steps_per_s": size / run_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_values),
        }
        units = END_TO_END
    else:
        layers = {}
        for name, unit in PER_LAYER.items():
            values = [r.result["layers"].get(name, r.result["counts"].get(name, 0))
                      for r in traced]
            # times are medians; counts are exact (checked to repeat above)
            layers[name] = statistics.median(values) if unit == "s" else values[0]
        layers["config.resolve.s"] = statistics.median(
            [r.result["resolve_s"] for r in setups + good])
        layers["trace.run_s"] = statistics.median([r.result["run_s"] for r in traced])
        layers["trace.overhead_s"] = layers["trace.run_s"] - run_s
        layers["check.ref_max_rel_err"] = ref_err
        layers["check.ref_bitwise_equal"] = int(ref_equal == len(good))
        metrics, units = layers, PER_LAYER
        lines.append(f"traced repetitions: {len(traced)}; tracing overhead "
                     f"{layers['trace.overhead_s']:.4g} s on {run_s:.4g} s untraced")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liqlab" / "__init__.py").is_file():
        print(f"error: no liqlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
