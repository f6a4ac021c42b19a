"""Regenerate reference.json: the key outputs of every workload input set.

    python3 benchmarks/make_reference.py

Runs each workload once per input set (seeds 0 .. SEED_SPACE - 1) at full
size, untimed, and stores its key numbers.  The stored file comes from the
commit that defined the benchmark; regenerate it only when a change to the
outputs is intended, and say so.  Prints every failed output check.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from child import PINNED_ENV, ROOT

os.environ.update(PINNED_ENV)
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def dump(table: dict) -> str:
    """One input set per line, keys sorted."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(entry, sort_keys=True)
                                               for entry in entries) + "\n]"
        for name, entries in sorted(table.items())) + "\n}\n"


def main() -> int:
    table = {}
    failed = 0
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        for name, workload in workloads.WORKLOADS.items():
            table[name] = []
            for seed in range(workloads.SEED_SPACE):
                resolved = workloads.resolve(workload.overrides(seed), workload.experiments)
                outcome = workloads.run(name, resolved, spans.Stopwatch(), Path(work_dir))
                table[name].append(outcome.numbers)
                failed += bool(outcome.failures)
                print(name, seed, f"{outcome.run_s:.2f}s", outcome.failures or "ok", flush=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(dump(table))
    print(f"wrote {path}; {failed} input sets failed a check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
