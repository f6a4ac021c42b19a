"""Scenario-driven command line front end.

Subcommands: simulate, ledger, swaps, bsde, replicate, arbitrage-test.
Each run resolves a configuration (file, then --set overrides, then
--seed/--out/--threads shortcuts), validates it, writes the resolved
config and a version stamp next to the outputs, and exits 0 on success,
2 on a validation failure, 3 on a numerical failure (with a diagnostics
file).  Outputs are deterministic functions of (config, seed): the
--threads flag is accepted for interface compatibility, but the numerics
are a single vectorized control flow, so results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import solve_quadratic_bsde, terminal_condition
from .config import EXPERIMENTS, ScenarioConfig, apply_overrides, parse_config
from .errors import LiqLabError, NumericalFailure, ValidationFailure
from .ledger import (
    Strategy,
    arbitrage_harness,
    cash_decomposed,
    export_ledger_csv,
    round_trip_family,
)
from .market import PathBundle, export_paths_csv, simulate_paths
from .payoffs import truncate_payoff
from .replication import replication_cost_curve
from .swaps import psi_matrix, swap_price, swap_price_paths
from .table import grid_index, write_table


def _write_run_stamp(cfg: ScenarioConfig, out_dir: Path, subcommand: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.cfg").write_text(cfg.serialize())
    _json_dump({"version": __version__, "subcommand": subcommand,
                "seed": cfg.get("run", "seed")}, out_dir / "run_info.json")


def _json_dump(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def _bundle(cfg: ScenarioConfig) -> PathBundle:
    return simulate_paths(cfg.model_params(), cfg.time_grid(),
                          cfg.get("run", "n_paths"), cfg.get("run", "seed"))


def _cmd_simulate(cfg: ScenarioConfig, out_dir: Path) -> None:
    export_paths_csv(_bundle(cfg), out_dir / "paths.csv")


def _build_strategy(cfg: ScenarioConfig, n_nodes: int) -> Strategy:
    kind = cfg.get("strategy", "kind")
    size = cfg.get("strategy", "size")
    x = np.zeros(n_nodes)
    if kind == "round_trip":
        x[n_nodes // 4: 3 * n_nodes // 4] = size
    elif kind == "buy_and_hold":
        x[:] = size
    else:
        rng = np.random.default_rng(cfg.get("run", "seed") + 1)
        knots = np.sort(rng.choice(n_nodes - 1, size=min(cfg.get("strategy", "n_knots"),
                                                         n_nodes - 1), replace=False))
        level = 0.0
        for i, knot in enumerate(knots):
            level = float(rng.normal(0.0, size))
            end = knots[i + 1] if i + 1 < len(knots) else n_nodes - 1
            x[knot:end] = level
        x[-1] = 0.0
    return Strategy(x=x)


def _cmd_ledger(cfg: ScenarioConfig, out_dir: Path) -> None:
    bundle = _bundle(cfg)
    strategy = _build_strategy(cfg, bundle.n_nodes)
    report = cash_decomposed(strategy, bundle)
    export_ledger_csv(bundle, strategy, report, out_dir / "ledger.csv")
    _json_dump({"max_relative_discrepancy": report.discrepancy,
                "terminal_cash_mean": float(report.y_direct[:, -1].mean())},
               out_dir / "ledger_summary.json")


def _cmd_swaps(cfg: ScenarioConfig, out_dir: Path) -> None:
    bundle = _bundle(cfg)
    params, times = bundle.params, bundle.grid.times()
    spec1, spec2 = cfg.swap_specs()
    g1 = swap_price_paths(bundle, spec1)
    g2 = swap_price_paths(bundle, spec2)
    n_show = min(10, bundle.n_paths)
    psi = psi_matrix(times[None, :], bundle.u[:n_show], bundle.v[:n_show],
                     bundle.s[:n_show], params, spec1.maturity, spec2.maturity)
    dets = psi.det()
    write_table(out_dir / "swaps.csv", ["path", "step", "t", "G1", "G2", "det_psi"],
                [*grid_index(n_show, times), g1[:n_show], g2[:n_show], dets])
    g0_1 = float(swap_price(0.0, params.u0, params.v0, 0.0, params, spec1))
    g0_2 = float(swap_price(0.0, params.u0, params.v0, 0.0, params, spec2))
    _json_dump({
        "G1_0_closed_form": g0_1,
        "G2_0_closed_form": g0_2,
        "G1_T_mc_mean": float(g1[:, -1].mean()),
        "G2_T_mc_mean": float(g2[:, -1].mean()),
        "min_abs_det_psi": float(np.abs(dets).min()),
        "alpha_equals_gamma": params.alpha == params.gamma,
    }, out_dir / "swaps_summary.json")


def _cmd_bsde(cfg: ScenarioConfig, out_dir: Path) -> None:
    """Solve the lambda = 0 (no persistent impact) value equation for the
    configured payoff and write per-step solver diagnostics.
    model.lambda_impact is ignored here; `replicate` uses it."""
    bundle = _bundle(cfg)
    bcfg = cfg.bsde_config()
    trunc = truncate_payoff(cfg.payoff(), bcfg.n_trunc)
    terminal = terminal_condition(bundle, trunc, x_units=1.0, lam=0.0)
    sol = solve_quadratic_bsde(bundle, terminal, bcfg)
    diag = sol.diagnostics
    write_table(out_dir / "bsde_diagnostics.csv",
                ["step", "alive", "cond", "picard_iters", "last_picard_delta"],
                [np.arange(len(diag.alive_counts)), diag.alive_counts, diag.cond_numbers,
                 [len(d) for d in diag.picard_deltas],
                 [float(d[-1]) if d else 0.0 for d in diag.picard_deltas]])
    _json_dump({"y0": sol.y0, "y0_stderr": sol.y0_stderr,
                "degenerate": sol.degenerate,
                "max_abs_y": diag.max_abs_y,
                "y_bound": diag.y_bound,
                "smallness_ok": diag.smallness_ok},
               out_dir / "bsde_summary.json")


def _cmd_replicate(cfg: ScenarioConfig, out_dir: Path) -> None:
    report = replication_cost_curve(
        cfg.model_params(), cfg.time_grid(), cfg.payoff(), cfg.unit_counts(),
        cfg.get("run", "n_paths"), cfg.get("run", "seed"), cfg.bsde_config(),
    )
    report.to_csv(out_dir / "report.csv")
    report.to_json(out_dir / "report.json")


def _cmd_arbitrage(cfg: ScenarioConfig, out_dir: Path) -> None:
    result = arbitrage_harness(
        round_trip_family(cfg.time_grid(), 20, cfg.get("strategy", "size"),
                          cfg.get("run", "seed") + 7),
        cfg.model_params(), cfg.time_grid(),
        cfg.get("run", "n_paths"), cfg.get("run", "seed"),
    )
    write_table(out_dir / "arbitrage.csv", ["strategy", "mean_gain", "stderr"],
                [result.labels, result.means, result.stderrs])
    _json_dump({"violates": result.violates, "worst_z": result.worst_z},
               out_dir / "arbitrage_summary.json")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ledger": _cmd_ledger,
    "swaps": _cmd_swaps,
    "bsde": _cmd_bsde,
    "replicate": _cmd_replicate,
    "arbitrage-test": _cmd_arbitrage,
}


def run(subcommand: str, cfg: ScenarioConfig, out_dir) -> int:
    """Validate, stamp and dispatch one experiment; returns the exit code."""
    out_dir = Path(out_dir)
    try:
        cfg.validate(experiment=subcommand)
        _write_run_stamp(cfg, out_dir, subcommand)
        _COMMANDS[subcommand](cfg, out_dir)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        diagnostics = {"error": type(exc).__name__, "message": str(exc)}
        if exc.diagnostics:
            diagnostics["detail"] = exc.diagnostics
        _json_dump(diagnostics, out_dir / "diagnostics.json")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liqlab",
                                     description="liquidity-impact Monte Carlo laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, description=_COMMANDS[name].__doc__)
        p.add_argument("--config", default=None, help="scenario file (key = value sections)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set model.epsilon=0")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; results are thread-count independent")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else ScenarioConfig()
        cfg = apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg.values[("run", "seed")] = args.seed
        if args.threads is not None:
            cfg.values[("run", "threads")] = args.threads
        out_dir = args.out if args.out is not None else cfg.get("run", "out_dir")
    except (LiqLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
