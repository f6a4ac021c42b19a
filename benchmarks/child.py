"""One repetition of one workload in a fresh process.

    python3 benchmarks/child.py '{"workload": "cli-2k", "seed": 0, "trace": false,
                                   "setup_only": false, "work_dir": ".bench_work"}'

Prints one JSON line: set-up time, the workload's run time, peak RSS,
failed checks, key numbers, counts and, when traced, the per-layer
summary.  A fresh process per repetition makes `ru_maxrss` the peak of
that repetition alone.  `n_paths` and `n_steps` in the spec shrink the
workload for the self-test.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: one load-generating thread per run, and reductions in
# a fixed order so the reference outputs repeat bitwise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent


def repetition(spec: dict) -> dict:
    t0 = time.perf_counter()
    import liqlab  # noqa: F401  (set-up cost)
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    overrides = workload.overrides(spec["seed"], spec.get("n_paths"), spec.get("n_steps"))
    t0 = time.perf_counter()
    resolved = workloads.resolve(overrides, workload.experiments)
    resolve_s = time.perf_counter() - t0
    result = {"setup_s": import_s + resolve_s, "resolve_s": resolve_s}
    if spec["setup_only"]:
        return result

    recorder = spans.Recorder() if spec["trace"] else None
    if recorder is not None:
        spans.instrument(recorder)
    clock = recorder.root() if recorder is not None else spans.Stopwatch()
    outcome = workloads.run(workload.name, resolved, clock, Path(spec["work_dir"]))
    result.update(run_s=outcome.run_s, failures=outcome.failures, numbers=outcome.numbers,
                  counts=outcome.counts,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if recorder is not None:
        result["layers"] = spans.summarize(recorder)
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    os.environ.update(PINNED_ENV)       # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = repetition(spec)
    except Exception:   # the parent counts the repetition as failed
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=1).strip().splitlines()[-1]}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
