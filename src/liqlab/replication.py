"""Replication-cost experiments built on the backward solver.

The frictionless benchmark ("hat" problem: zero impact fraction, zero
illiquidity scale) prices the payoff h(S_T) and yields the delta used as
the market's perceived hedge.  For each unit count x the lab solves the
quadratic problem with the impact-adjusted terminal, tracks the per-unit
cost H0(x) = Y0(x) / x against the benchmark value, estimates the
liquidity premium per unit (the derivative of H0 at zero) both
analytically and by finite differences, and measures the mean squared gap
between the realized impacted terminal quote and the adjusted terminal
price used in the payoff.

All runs on one report share a single path bundle (common random
numbers), so x-comparisons are paired and low-variance, and one payoff
truncation.  The hat problem is one `solve_quadratic_bsde` plus
`hedge_from_solution` (its delta enters every x-terminal).  Each
x-terminal, built once, carries its lambda and adjusted terminal price to
the joint x-pass `solve_and_hedge` and to the impact-gap study; the pass
keeps per x only the stock position, xi, the estimate and the solver
diagnostics.  A failure in any x-run aborts the report; the first one in
step order is raised.  Rank deficiency and a singular loading matrix
surface in the hat solve first: its alive sets are those of the x-runs,
and the loading matrices are checked only there, as the x-runs form X
from Z_1 alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bsde import (
    BsdeConfig,
    BsdeSolution,
    TerminalCondition,
    hedge_from_solution,
    solve_and_hedge,
    solve_quadratic_bsde,
    terminal_condition,
)
from .errors import InvalidParams
from .market import ModelParams, PathBundle, mu_coeff, simulate_paths, with_epsilon
from .noise import TimeGrid
from .order_book import impacted_quote_path
from .payoffs import Payoff, TruncatedPayoff, truncate_payoff
from .table import write_table


def hat_solution(bundle_lin: PathBundle, trunc: TruncatedPayoff,
                 config: BsdeConfig) -> BsdeSolution:
    """Solve the zero-impact problem with terminal h^N(S_T) and recover the hedge."""
    if bundle_lin.params.epsilon != 0.0:
        raise InvalidParams("hat solution expects a bundle simulated with epsilon = 0")
    terminal = terminal_condition(bundle_lin, trunc, x_units=1.0, lam=0.0)
    return hedge_from_solution(solve_quadratic_bsde(bundle_lin, terminal, config), bundle_lin)


def _estimate(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of per-path values and its standard error."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.shape[0]))


def h_prime_zero(bundle: PathBundle, hat: BsdeSolution, trunc: TruncatedPayoff, lam: float):
    """Monte Carlo estimate of the liquidity premium per unit at x = 0.

    Two terms: the accumulated depth drift weighted by the squared
    frictionless delta, minus twice the truncated payoff's slope
    `trunc.d` (zero outside the band; MissingDerivative when the payoff
    has no derivative) times the delta-weighted depth turnover.  Both sums
    run to the stopping node, where the hedge is already zero.
    """
    dt = bundle.grid.dt
    x_hat = hat.x[:, :-1]
    term1 = lam * np.sum(mu_coeff(bundle.u[:, :-1], bundle.params) * x_hat ** 2, axis=1) * dt
    dm = np.diff(bundle.m, axis=1)
    s_term = bundle.s[:, -1]
    term2 = 2.0 * lam * trunc.d(s_term) * np.sum(x_hat * dm, axis=1)
    return _estimate(term1 - term2)


def impact_error(bundle: PathBundle, terminal: TerminalCondition, solution_x: BsdeSolution):
    """Mean squared gap between the impacted terminal quote and the
    adjusted terminal price of the x-run's terminal, under its recovered hedge."""
    if solution_x.x is None:
        raise InvalidParams("solution has no recovered hedge; call hedge_from_solution")
    quotes = impacted_quote_path(bundle, solution_x.x, terminal.lam)
    return _estimate((quotes.s0_post[:, -1] - terminal.s_tilde) ** 2)


@dataclass(frozen=True)
class ReplicationReport:
    """Per-unit cost curve with paired errors and the impact-gap study."""

    xs: np.ndarray
    y0s: np.ndarray
    h0s: np.ndarray
    h0_stderrs: np.ndarray
    diff_means: np.ndarray          # H0(x) - yhat0, paired per x
    diff_stderrs: np.ndarray
    delta_l2: np.ndarray            # mean square of (X^x / x - Xhat) over alive nodes
    impact_errs: np.ndarray
    impact_stderrs: np.ndarray
    yhat0: float
    yhat0_stderr: float
    hprime0_analytic: float
    hprime0_analytic_stderr: float
    hprime0_fd: float
    hprime0_fd_stderr: float
    h0_slope: float
    impact_slope: float
    smallness_warning: bool

    def to_csv(self, path) -> None:
        write_table(path, ["x", "Y0", "H0", "stderr", "impact_err", "impact_stderr"],
                    [self.xs, self.y0s, self.h0s, self.h0_stderrs,
                     self.impact_errs, self.impact_stderrs])

    def summary(self) -> dict:
        return {
            "H0_limit": self.yhat0,
            "H0_limit_stderr": self.yhat0_stderr,
            "Hprime0_analytic": self.hprime0_analytic,
            "Hprime0_analytic_stderr": self.hprime0_analytic_stderr,
            "Hprime0_fd": self.hprime0_fd,
            "Hprime0_fd_stderr": self.hprime0_fd_stderr,
            "h0_slope": self.h0_slope,
            "impact_slope": self.impact_slope,
            "smallness_warning": self.smallness_warning,
        }

    def to_json(self, path) -> None:
        columns = {"x": self.xs, "Y0": self.y0s, "H0": self.h0s, "stderr": self.h0_stderrs,
                   "diff_mean": self.diff_means, "diff_stderr": self.diff_stderrs,
                   "delta_l2": self.delta_l2, "impact_err": self.impact_errs,
                   "impact_stderr": self.impact_stderrs}
        # a slope through fewer than two positive points is undefined: null
        summary = {key: None if key.endswith("_slope") and np.isnan(value) else value
                   for key, value in self.summary().items()}
        payload = {
            "summary": summary,
            "rows": [{name: float(col[i]) for name, col in columns.items()}
                     for i in range(len(self.xs))],
        }
        # built whole before writing, so a non-finite value leaves no file
        text = json.dumps(payload, indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text)


def _loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = ys > 0
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])


def _delta_l2(sol: BsdeSolution, x: float, hat: BsdeSolution) -> float:
    """Mean square of X^x / x - Xhat over the nodes where the x-run's paths are alive."""
    alive = np.arange(sol.x.shape[1])[None, :] < sol.tau_index[:, None]
    gap = (sol.x / x - hat.x)[alive]
    return float(np.mean(gap ** 2)) if gap.size else 0.0


def check_unit_counts(xs) -> np.ndarray:
    """The unit counts as a float array; they must be nonempty, finite, nonzero and distinct."""
    xs = np.asarray(list(xs), dtype=float)
    # distinct by sorting: np.unique imports numpy.ma (about 13 ms) on first use
    if (xs.size == 0 or not np.all(np.isfinite(xs) & (xs != 0.0))
            or np.any(np.diff(np.sort(xs)) == 0.0)):
        raise InvalidParams("unit counts must be nonempty, finite, nonzero and distinct")
    return xs


def replication_cost_curve(
    params: ModelParams,
    grid: TimeGrid,
    payoff: Payoff,
    xs,
    n_paths: int,
    seed: int,
    config: BsdeConfig,
) -> ReplicationReport:
    """Run the full per-unit-cost experiment over a grid of unit counts."""
    xs = check_unit_counts(xs)
    params.validate(require_swap_hedging=True)
    lam = params.lambda_impact
    trunc = truncate_payoff(payoff, config.n_trunc)

    bundle = simulate_paths(params, grid, n_paths, seed)
    # epsilon only scales the depth, so the zero-illiquidity bundle is the
    # same paths with M = 0: bitwise what simulate_paths gives at epsilon = 0.
    bundle_lin = replace(bundle, params=with_epsilon(params, 0.0), m=np.zeros_like(bundle.m))
    hat = hat_solution(bundle_lin, trunc, config)

    terminals = [terminal_condition(bundle, trunc, x, lam, hat.x) for x in xs]
    runs = solve_and_hedge(bundle, terminals, config)
    for x, sol in zip(xs, runs):
        if not sol.diagnostics.smallness_ok:
            warnings.warn(f"x = {x:g} outside the contraction smallness regime",
                          RuntimeWarning, stacklevel=2)

    def paired_diff(i):
        """Per-path D(x) = xi(x) / x - xi_hat of the i-th unit count."""
        return runs[i].xi / xs[i] - hat.xi

    diff_means, diff_errs = np.array([_estimate(paired_diff(i)) for i in range(len(xs))]).T
    delta_l2 = np.array([_delta_l2(sol, x, hat) for x, sol in zip(xs, runs)])
    imp_errs, imp_stderrs = np.array([impact_error(bundle, terminal, sol)
                                      for terminal, sol in zip(terminals, runs)]).T

    order = np.argsort(np.abs(xs))
    x2 = xs[order[0]]
    if len(xs) >= 2:
        # Richardson step on D(x) / x = H'(0) + O(x) through the two smallest |x|
        x1 = xs[order[1]]
        r = x1 / x2
        fd_pp = (r * paired_diff(order[0]) / x2 - paired_diff(order[1]) / x1) / (r - 1.0)
    else:
        fd_pp = paired_diff(order[0]) / x2
    hp_fd, hp_fd_err = _estimate(fd_pp)
    hp_an, hp_an_err = h_prime_zero(bundle, hat, trunc, lam)

    y0s = np.array([sol.y0 for sol in runs])
    return ReplicationReport(
        xs=xs, y0s=y0s, h0s=y0s / xs,
        h0_stderrs=np.array([sol.y0_stderr for sol in runs]) / np.abs(xs),
        diff_means=diff_means, diff_stderrs=diff_errs, delta_l2=delta_l2,
        impact_errs=imp_errs, impact_stderrs=imp_stderrs,
        yhat0=hat.y0, yhat0_stderr=hat.y0_stderr,
        hprime0_analytic=hp_an, hprime0_analytic_stderr=hp_an_err,
        hprime0_fd=hp_fd, hprime0_fd_stderr=hp_fd_err,
        h0_slope=_loglog_slope(np.abs(xs), np.abs(diff_means)),
        impact_slope=_loglog_slope(np.abs(xs), imp_errs),
        smallness_warning=not all(sol.diagnostics.smallness_ok for sol in runs),
    )
