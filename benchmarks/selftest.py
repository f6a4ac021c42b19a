"""Self-test of the benchmark at tiny sizes (500 paths x 16 steps).

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
in untraced and traced runs of every workload; that a traced
repetition's self times are nonnegative and sum to its total; and that
the exact counts repeat between two traced repetitions.  Exits non-zero
on a failure.
"""

import json
import math
import os
import sys

from child import PINNED_ENV, ROOT

os.environ.update(PINNED_ENV)
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"n_paths": 500, "n_steps": 16}


def check_metrics(declared: dict, failures: list) -> None:
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            _, result = run.measure(name, 0, 0.1, trace, **TINY)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace={int(trace)}: emitted {got}, declared {want}")
            for key, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    failures.append(f"{name}: {key} = {metric['value']}")
            if result["attempted"] < 1:
                failures.append(f"{name} trace={int(trace)}: nothing attempted")


def check_spans(failures: list) -> None:
    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    env = {**os.environ, **PINNED_ENV}
    for name in workloads.WORKLOADS:
        spec = {"workload": name, "seed": 0, "work_dir": str(work_dir), "setup_only": False,
                "trace": True, **TINY}
        first, second = run.Repetition(spec, env), run.Repetition(spec, env)
        layers = first.result.get("layers", {})
        total = layers.get("workload.s", math.nan)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if not abs(self_sum - total) <= 1e-6 * max(total, 1e-3):
            failures.append(f"{name}: self times sum to {self_sum}, total {total}")
        negative = {k: v for k, v in layers.items() if k.endswith(".self_s") and v < -1e-9}
        if negative:
            failures.append(f"{name}: negative self times (spans misparented): {negative}")
        exact, again = run._counts(first), run._counts(second)
        if exact != again or not exact:
            failures.append(f"{name}: counts differ between traced runs: {exact} vs {again}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    check_metrics(declared, failures)
    check_spans(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
