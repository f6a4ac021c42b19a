"""The benchmark's three liqlab workloads, their output checks and key numbers.

Each workload is a real liqlab experiment at a fixed size on the default
scenario.  `run` executes it once inside `clock`, the timed region, and
returns an `Outcome`: the output checks that failed and the key numbers
that are compared with the stored reference outputs.  Reading back files
and checking them happens after the timed region.

Module functions are looked up through their module objects
(`market.simulate_paths`, not a name bound at import), so the tracer in
`spans.py` can replace them.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from liqlab import cli, ledger, market, replication, swaps
from liqlab.config import ScenarioConfig, apply_overrides

# Seed n selects input set n mod SEED_SPACE.  reference.json holds the
# outputs of every input set, so each run has a reference to compare with.
SEED_SPACE = 32

XS = (200.0, 100.0, 50.0, 25.0)
CLI_COMMANDS = (
    ("simulate", []),
    ("ledger", ["--set", "strategy.kind=random"]),
    ("swaps", []),
    ("bsde", []),
)


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    n_paths: int
    n_steps: int
    experiments: tuple       # validated during set-up, as the CLI would

    def liqlab_seed(self, seed: int) -> int:
        return self.base_seed + seed % SEED_SPACE

    def overrides(self, seed: int, n_paths: int | None = None,
                  n_steps: int | None = None) -> list:
        return [f"grid.n_steps={n_steps or self.n_steps}",
                f"run.n_paths={n_paths or self.n_paths}",
                f"run.seed={self.liqlab_seed(seed)}"]


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("replicate-20k", 909, 20_000, 64, ("replicate",)),
        Workload("forward-50k", 303, 50_000, 64, ("swaps", "arbitrage-test")),
        Workload("cli-2k", 5, 2_000, 64, ("simulate", "ledger", "swaps", "bsde")),
    )
}


def resolve(overrides, experiments):
    """The set-up every run pays before its first simulation."""
    cfg = apply_overrides(ScenarioConfig(), overrides)
    for experiment in experiments:
        cfg.validate(experiment=experiment)
    params = cfg.model_params()
    params.validate()
    return cfg, params, cfg.time_grid(), cfg.bsde_config()


@dataclass
class Outcome:
    run_s: float
    failures: list = field(default_factory=list)
    numbers: dict = field(default_factory=dict)   # key outputs, compared with the reference
    counts: dict = field(default_factory=dict)    # exact work counts read from the outputs

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _all_finite(numbers: dict) -> bool:
    return all(math.isfinite(v) for v in numbers.values() if isinstance(v, float))


def _replicate(resolved, clock, work_dir: Path) -> Outcome:
    cfg, params, grid, bcfg = resolved
    with clock:
        report = replication.replication_cost_curve(
            params, grid, cfg.payoff(), XS, cfg.get("run", "n_paths"),
            cfg.get("run", "seed"), bcfg)
    out = Outcome(run_s=clock.seconds)

    out.numbers = {k: float(v) for k, v in report.summary().items()
                   if k != "smallness_warning"}
    for name in ("y0s", "h0s", "h0_stderrs", "diff_means", "diff_stderrs", "delta_l2",
                 "impact_errs", "impact_stderrs"):
        for x, v in zip(XS, getattr(report, name)):
            out.numbers[f"{name}[{x:g}]"] = float(v)

    # The bounds of the tier-1 acceptance criteria 6 to 8.
    out.check(_all_finite(out.numbers), "non-finite report value")
    abs_diffs = np.abs(report.diff_means)
    out.check(bool(np.all(abs_diffs[:-1] > abs_diffs[1:])),
              "|H0(x) - H0(0)| does not decrease with x")
    out.check(0.7 <= report.h0_slope <= 1.3,
              f"h0_slope {report.h0_slope:.3f} outside [0.7, 1.3]")
    out.check(bool(np.all(report.impact_errs > 0)) and report.impact_slope >= 2.5,
              f"impact_slope {report.impact_slope:.3f} < 2.5")
    gap = abs(report.hprime0_fd - report.hprime0_analytic)
    combined = math.hypot(report.hprime0_fd_stderr, report.hprime0_analytic_stderr)
    out.check(gap < 3.0 * combined,
              f"H'(0) finite difference vs analytic gap {gap:.3e} >= 3 x {combined:.3e}")
    # smallness_warning is not a failed check: it flags that the largest
    # driver coefficient over all sampled paths leaves the contraction
    # regime at the largest x, which depends on the sample.  The traced run
    # counts it as bsde.smallness_exceeded.
    return out


def _forward(resolved, clock, work_dir: Path) -> Outcome:
    cfg, params, grid, _ = resolved
    n_paths, seed = cfg.get("run", "n_paths"), cfg.get("run", "seed")
    spec1, spec2 = cfg.swap_specs()
    family = ledger.round_trip_family(grid, 20, 3.0, 7)
    # The harness keeps its ledger reports to itself: note each discrepancy
    # as the report is returned.
    discrepancies = []
    decomposed = ledger.cash_decomposed

    def observed(*args, **kwargs):
        report = decomposed(*args, **kwargs)
        discrepancies.append(report.discrepancy)
        return report

    ledger.cash_decomposed = observed
    try:
        with clock:
            bundle = market.simulate_paths(params, grid, n_paths, seed)
            g1 = swaps.swap_price_paths(bundle, spec1)
            g2 = swaps.swap_price_paths(bundle, spec2)
            result = ledger.arbitrage_harness(family, params, grid, n_paths, seed)
    finally:
        ledger.cash_decomposed = decomposed
    out = Outcome(run_s=clock.seconds)

    out.numbers = {"S_T_mean": float(bundle.s[:, -1].mean()),
                   "G1_T_mean": float(g1[:, -1].mean()), "G2_T_mean": float(g2[:, -1].mean()),
                   "G1_0": float(g1[0, 0]), "G2_0": float(g2[0, 0]),
                   "worst_z": result.worst_z,
                   "max_discrepancy": max(discrepancies, default=math.nan)}
    for i, (mean, err) in enumerate(zip(result.means, result.stderrs)):
        out.numbers[f"mean[{i}]"] = float(mean)
        out.numbers[f"stderr[{i}]"] = float(err)
    out.check(_all_finite(out.numbers), "non-finite output")
    out.check(not result.violates, f"arbitrage harness violated (worst z {result.worst_z:.2f})")
    out.check(len(discrepancies) == len(family),
              f"{len(discrepancies)} ledger reports for {len(family)} strategies")
    out.check(out.numbers["max_discrepancy"] <= 1e-9,
              f"ledger discrepancy {out.numbers['max_discrepancy']:.3e} > 1e-9")
    return out


def _cli(resolved, clock, work_dir: Path) -> Outcome:
    cfg = resolved[0]
    argv_tail = ["--seed", str(cfg.get("run", "seed")),
                 "--set", f"grid.n_steps={cfg.get('grid', 'n_steps')}",
                 "--set", f"run.n_paths={cfg.get('run', 'n_paths')}"]
    out_root = Path(tempfile.mkdtemp(prefix="cli-", dir=work_dir))
    try:
        with clock:
            codes = [cli.main([sub, "--out", str(out_root / sub), *argv_tail, *extra])
                     for sub, extra in CLI_COMMANDS]
        out = Outcome(run_s=clock.seconds)
        for (sub, _), code in zip(CLI_COMMANDS, codes):
            out.check(code == 0, f"liqlab {sub} exited {code}")

        rows = n_bytes = 0
        for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            rel = path.relative_to(out_root).as_posix()
            out.numbers[f"sha256:{rel}"] = hashlib.sha256(data).hexdigest()
            n_bytes += len(data)
            if path.suffix == ".csv":
                rows += data.count(b"\n") - 1
                lowered = data.lower()
                out.check(b"nan" not in lowered and b"inf" not in lowered,
                          f"non-finite number in {rel}")
            elif path.name.endswith("_summary.json"):
                for key, value in sorted(json.loads(data).items()):
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        out.numbers[f"{rel}:{key}"] = float(value)
        out.check(_all_finite(out.numbers), "non-finite summary value")
        disc = out.numbers.get("ledger/ledger_summary.json:max_relative_discrepancy", math.nan)
        out.check(disc <= 1e-9, f"ledger max_relative_discrepancy {disc:.3e} > 1e-9")
        out.counts = {"cli.rows_written": rows, "cli.bytes_written": n_bytes}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    return out


_RUNNERS = {"replicate-20k": _replicate, "forward-50k": _forward, "cli-2k": _cli}


def run(name: str, resolved, clock, work_dir: Path) -> Outcome:
    return _RUNNERS[name](resolved, clock, work_dir)


def compare(numbers: dict, reference: dict) -> tuple[float, bool]:
    """Largest relative error over the reference's numbers, and bitwise equality."""
    worst = 0.0
    for key, ref in reference.items():
        got = numbers.get(key)
        if isinstance(ref, float) and isinstance(got, float) and got != ref:
            worst = max(worst, abs(got - ref) / max(abs(got), abs(ref)))
    return worst, numbers == reference
