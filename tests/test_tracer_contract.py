"""The benchmark's tracer still finds what it wraps.

`benchmarks/spans.py` wraps liqlab functions by name and reads
`BsdeSolution` fields from their results.  A renamed function or a
dropped field breaks only traced benchmark runs, so this runs
`benchmarks/child.py` traced, in a fresh process as the benchmark does,
at the self-test's size (500 paths x 16 steps), and checks that the
three workloads together enter every span the tracer defines.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
_SPEC = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

WORKLOADS = ("replicate-20k", "forward-50k", "cli-2k")


def _traced_run(workload: str, work_dir: Path) -> dict:
    spec = {"workload": workload, "seed": 0, "trace": True, "setup_only": False,
            "work_dir": str(work_dir), "n_paths": 500, "n_steps": 16}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_solver_span_is_entered(tmp_path):
    calls = {}
    for workload in WORKLOADS:
        result = _traced_run(workload, tmp_path)
        assert result["failures"] == [], (workload, result["failures"])
        for key, value in result["layers"].items():
            if key.endswith(".calls"):
                calls[key] = calls.get(key, 0) + value
    wanted = [name for _, _, name, _ in spans.TARGETS]
    assert len(wanted) == 15
    missing = [name for name in wanted if not calls.get(name + ".calls")]
    assert not missing, f"spans never entered: {missing}"
