"""Backward regression solver for the quadratic-driver value equation.

The replication value Y and its diffusion exposures Z solve, up to the
stopping time tau (the first node where S <= 1/L or where Sigma leaves
(1/L, L); S has no upper stop),

    Y_t = terminal + lambda * int_t^tau Lambda_u Z_{1,u}^2 du - int Z dB.

The solver marches backward over the grid.  Each step is one sequence of
regressions on polynomial features of (S, U, V) over the paths still
alive: the value Y_k from Y_{k+1}; Z_1 from the control-variate target
(Y_{k+1} - Y_k) dB_1 / dt; when the driver is active, a Picard loop on
(Y_k, Z_1) that adds lambda Lambda Z_1^2 dt to the value target until the
value stabilizes; last, in the full solve, Z_2 and Z_3 once from the
final value.  Stopped paths carry their value unchanged with zero
exposures, which realizes the conditional expectation at tau through the
tower property (no separate estimator); a run where every path stops at
node 0 is flagged degenerate.

The design, Gram matrix, alive set and driver term lambda Lambda of a
step, formed from that step's states, serve every target regressed at
that step; lambda is the terminal condition's.  Each step gathers its
alive paths' states and Brownian increments once, into contiguous
arrays.  `solve_quadratic_bsde` runs the pass for one terminal and keeps
the full Y and Z.
`solve_and_hedge` runs it once for several terminals of one lambda on
one bundle (the unit counts of a replication run), fitting only the
value and Z_1: each column keeps its own Picard stop, divergence
counter, xi and running max |Y|, the stock position X = Z_1 / (sigma1
Sigma S) is formed at each node while Z_1 is live, and per column only
X, xi, the estimate and the diagnostics are kept.  The fits stay one
target at a time, so every column is bitwise what its own
`solve_quadratic_bsde` plus `hedge_from_solution` gives.  The first
failure in step order (rank deficiency, Picard divergence) aborts the
whole pass; the loading matrix is not built there, as X does not depend
on it.

Regressions use ridge-stabilized least squares on standardized features
with an unpenalized intercept, so cross-path means are preserved exactly:
the cross-path value at node 0 equals the plain Monte Carlo mean of the
terminal plus accumulated driver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParams,
    MissingHatHedge,
    PicardDiverged,
    RegressionRankDeficient,
    SingularSystem,
)
from .market import PathBundle, driver_coefficient, zeta_coeff
from .payoffs import TruncatedPayoff
from .swaps import invert_hedge, psi_matrix


@dataclass(frozen=True)
class BsdeConfig:
    """Solver knobs: truncation levels, basis, Picard control."""

    l_trunc: float
    n_trunc: float
    degree: int = 2
    picard_iters: int = 5
    picard_tol: float = 1e-8
    min_paths_per_regression: int = 0
    ridge: float = 1e-8

    def __post_init__(self):
        # written as `not x > bound` so that NaN fails each check
        if not self.l_trunc > 1.0:
            raise InvalidParams("truncation threshold l_trunc must exceed 1")
        if not self.n_trunc > 0.0:
            raise InvalidParams("payoff truncation level n_trunc must be positive")
        if self.degree < 1:
            raise InvalidParams("basis degree must be at least 1")
        if self.picard_iters < 1:
            raise InvalidParams("Picard iteration cap picard_iters must be at least 1")
        if not self.picard_tol >= 0.0:
            raise InvalidParams("Picard tolerance picard_tol must be nonnegative")
        if not self.ridge > 0.0:
            # columns with no spread (all but the intercept at step 0) are
            # zero, and only the ridge keeps the Gram matrix invertible
            raise InvalidParams("ridge penalty must be positive")


@dataclass(frozen=True)
class TerminalCondition:
    """Per-path terminal values x * h^N(adjusted terminal price).

    lam, the impact fraction of the adjustment, is also the driver's.
    """

    values: np.ndarray
    s_tilde: np.ndarray
    x_units: float
    lam: float
    payoff_bound: float


def stopping_index(bundle: PathBundle, l_trunc: float) -> np.ndarray:
    """First grid node where S <= 1/L or Sigma leaves [1/L, L], else the last node."""
    if not l_trunc > 1.0:
        raise InvalidParams("truncation threshold must exceed 1")
    inv = 1.0 / l_trunc
    bad = (bundle.s <= inv) | (bundle.sigma >= l_trunc) | (bundle.sigma <= inv)
    hit = bad.any(axis=1)
    return np.where(hit, bad.argmax(axis=1), bundle.n_nodes - 1)


def terminal_condition(
    bundle: PathBundle,
    payoff: TruncatedPayoff,
    x_units: float,
    lam: float,
    hat_hedge: np.ndarray | None = None,
) -> TerminalCondition:
    """Terminal values against the impact-adjusted terminal price.

    The adjustment subtracts 2 lambda x times the depth-weighted turnover
    of the frictionless delta: S~ = S_T - 2 lambda x sum Xhat_{k} dM_{k+1}.
    hat_hedge may be omitted only when the adjustment vanishes (lambda = 0
    or constant depth).
    """
    dm = np.diff(bundle.m, axis=1)
    needs_hat = lam != 0.0 and np.any(dm != 0.0)
    if hat_hedge is None:
        if needs_hat:
            raise MissingHatHedge("frictionless delta required when impact is active")
        s_tilde = bundle.s[:, -1].copy()
    else:
        hat = np.asarray(hat_hedge, dtype=float)
        if hat.shape != (bundle.n_paths, bundle.n_nodes):
            raise MissingHatHedge("hat hedge path does not match the bundle grid")
        s_tilde = bundle.s[:, -1] - 2.0 * lam * x_units * np.sum(hat[:, :-1] * dm, axis=1)
    values = x_units * payoff(s_tilde)
    return TerminalCondition(values=values, s_tilde=s_tilde, x_units=x_units, lam=lam,
                             payoff_bound=payoff.bound)


def _alive_paths(tau: np.ndarray, k: int):
    """Index and count of the paths alive at node k (tau > k).

    The index is a slice when every path is alive (views, no gathers), a
    boolean mask when some are, and None when none is.
    """
    alive = tau > k
    n_alive = int(alive.sum())
    if n_alive == alive.size:
        return slice(None), n_alive
    return (alive if n_alive else None), n_alive


def _n_features(degree: int) -> int:
    # monomials in 3 variables with total degree <= degree
    return (degree + 1) * (degree + 2) * (degree + 3) // 6


def _design(s, u, v, degree: int) -> np.ndarray:
    """Standardized monomials of (s, u, v) up to `degree`, intercept first.

    Each monomial is s^i u^j v^k with its unit factors left out, written
    into one (n, p) array that is centered and scaled in place; columns
    with no spread are zero.
    """
    n = s.shape[0]
    powers = [[None, x] + [x ** e for e in range(2, degree + 1)] for x in (s, u, v)]
    raw = np.empty((n, _n_features(degree)))
    raw[:, 0] = 1.0
    col = 1
    for total in range(1, degree + 1):
        for i in range(total + 1):
            for j in range(total - i + 1):
                first, *rest = [p[e] for p, e in zip(powers, (i, j, total - i - j)) if e]
                out = raw[:, col]
                out[:] = first
                for f in rest:
                    out *= f
                col += 1
    mean = raw.sum(axis=0) / n
    raw -= mean
    std = np.sqrt((raw * raw).sum(axis=0) / n)
    keep = std > 1e-12 * (np.abs(mean) + 1.0)
    raw /= np.where(keep, std, 1.0)
    raw[:, ~keep] = 0.0
    raw[:, 0] = 1.0
    return raw


class _RidgeSolver:
    """Shared design and Gram matrix for all regressions at one time step.

    The intercept column is unpenalized so fitted values preserve the
    sample mean of any target exactly.
    """

    def __init__(self, design: np.ndarray, ridge: float):
        self.design = design
        gram = design.T @ design
        penalty = np.ones(design.shape[1])
        penalty[0] = 0.0
        gram_reg = gram + ridge * design.shape[0] * np.diag(penalty)
        self.cond = float(np.linalg.cond(gram_reg))
        self._gram_reg = gram_reg

    def fit(self, target: np.ndarray) -> np.ndarray:
        beta = np.linalg.solve(self._gram_reg, self.design.T @ target)
        return self.design @ beta


@dataclass(frozen=True)
class BsdeDiagnostics:
    alive_counts: np.ndarray
    cond_numbers: np.ndarray
    picard_deltas: list
    lambda_bound: float
    y_bound: float
    max_abs_y: float
    smallness_ok: bool
    bound_violated: bool


@dataclass(frozen=True)
class BsdeSolution:
    """Value and exposure paths, recovered hedge, and run diagnostics.

    xi is the per-path estimator (terminal plus accumulated driver) whose
    mean is y0; its spread gives the Monte Carlo standard error.  The runs
    of `solve_and_hedge` keep only the stock position x of the hedge: their
    y, z, chi1 and chi2 are None.
    """

    tau_index: np.ndarray
    y0: float
    y0_stderr: float
    xi: np.ndarray
    diagnostics: BsdeDiagnostics
    degenerate: bool
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    x: np.ndarray | None = None
    chi1: np.ndarray | None = None
    chi2: np.ndarray | None = None


class _Step(NamedTuple):
    k: int
    alive: slice | np.ndarray   # index of `_alive_paths`
    solver: _RidgeSolver
    db: np.ndarray              # (3, n_alive) Brownian increments on the alive paths
    drift: np.ndarray | None    # lam * Lambda on the alive paths; None when the driver is off


class _BackwardPass:
    """The regression basis of every step, shared by all target columns.

    Iterating yields the steps k = n_steps - 1, ..., 0 that have alive
    paths, each with its design built once; the pass records the alive
    counts, condition numbers and largest Lambda on the way.
    """

    def __init__(self, bundle: PathBundle, lam: float, config: BsdeConfig):
        self.bundle, self.lam, self.config = bundle, lam, config
        self.tau = stopping_index(bundle, config.l_trunc)
        n_steps = bundle.n_nodes - 1
        self.alive_counts = np.zeros(n_steps, dtype=int)
        self.cond_numbers = np.zeros(n_steps)
        self.lambda_bound = 0.0

    def __iter__(self):
        bundle, lam, config = self.bundle, self.lam, self.config
        min_alive = max(config.min_paths_per_regression, _n_features(config.degree))
        for k in range(len(self.alive_counts) - 1, -1, -1):
            alive, n_alive = _alive_paths(self.tau, k)
            self.alive_counts[k] = n_alive
            if alive is None:
                continue
            if n_alive < min_alive:
                raise RegressionRankDeficient(
                    f"step {k}: {n_alive} alive paths < required {min_alive}",
                    diagnostics={"step": k, "alive": n_alive, "required": min_alive},
                )
            s_k, u_k, v_k = (np.ascontiguousarray(a[alive, k])
                             for a in (bundle.s, bundle.u, bundle.v))
            solver = _RidgeSolver(_design(s_k, u_k, v_k, config.degree), config.ridge)
            self.cond_numbers[k] = solver.cond
            drift = None
            if lam != 0.0:
                lam_vals = driver_coefficient(u_k, v_k, s_k, bundle.params)
                if np.any(lam_vals != 0.0):
                    self.lambda_bound = max(self.lambda_bound, float(lam_vals.max()))
                    drift = lam * lam_vals
            db = np.ascontiguousarray(bundle.noise.db[alive, k, :].T)
            yield _Step(k, alive, solver, db, drift)

    def solution(self, terminal: TerminalCondition, y_node0: np.ndarray, xi: np.ndarray,
                 picard_deltas: list, max_abs_y: float, **paths) -> BsdeSolution:
        """The estimate and diagnostics of one column from its node-0 values and xi."""
        n_paths = xi.shape[0]
        y_bound = abs(terminal.x_units) * terminal.payoff_bound
        smallness = self.lam * 2.0 * self.lambda_bound * terminal.payoff_bound
        smallness_ok = smallness * abs(terminal.x_units) < 0.5
        diag = BsdeDiagnostics(
            alive_counts=self.alive_counts, cond_numbers=self.cond_numbers,
            picard_deltas=picard_deltas, lambda_bound=self.lambda_bound,
            y_bound=y_bound, max_abs_y=max_abs_y, smallness_ok=smallness_ok,
            bound_violated=bool(smallness_ok and max_abs_y > y_bound * (1 + 1e-9)),
        )
        return BsdeSolution(
            tau_index=self.tau, y0=float(y_node0.mean()),
            y0_stderr=float(xi.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0,
            xi=xi, diagnostics=diag, degenerate=not self.alive_counts.any(), **paths)


def _fit_step(step: _Step, target: np.ndarray, xi: np.ndarray, deltas: list,
              config: BsdeConfig, dt: float):
    """One column's value and Z1 fits at one step; returns (y, z1) on the alive paths.

    Value, Z1, then the Picard loop on (Y, Z1) when the driver is active
    (its deltas appended to `deltas`, its driver term added to xi).
    """
    solver, db1, drift = step.solver, step.db[0], step.drift
    y_new = solver.fit(target)
    z1 = solver.fit((target - y_new) * db1 / dt)
    if drift is not None:
        y_new = solver.fit(target + drift * z1 ** 2 * dt)
        prev_delta = None
        growing = 0
        for _ in range(1, config.picard_iters):
            z1 = solver.fit((target - y_new) * db1 / dt)
            y_next = solver.fit(target + drift * z1 ** 2 * dt)
            delta = float(np.abs(y_next - y_new).max())
            deltas.append(delta)
            y_new = y_next
            if prev_delta is not None and delta > prev_delta:
                growing += 1
                if growing >= 3:
                    raise PicardDiverged(
                        f"step {step.k}: Picard deltas grew 3 times in a row",
                        diagnostics={"step": step.k, "deltas": deltas},
                    )
            else:
                growing = 0
            prev_delta = delta
            if delta < config.picard_tol:
                break
        xi[step.alive] += drift * z1 ** 2 * dt
    return y_new, z1


def _terminal_values(bundle: PathBundle, terminal: TerminalCondition) -> np.ndarray:
    values = np.asarray(terminal.values, dtype=float)
    if values.shape != (bundle.n_paths,):
        raise InvalidParams("terminal values must be one per path")
    if not np.all(np.isfinite(values)):
        raise InvalidParams("terminal values must be finite")
    return values


def solve_quadratic_bsde(bundle: PathBundle, terminal: TerminalCondition,
                         config: BsdeConfig) -> BsdeSolution:
    """Backward pass over the grid; see the module docstring for the scheme."""
    values = _terminal_values(bundle, terminal)
    backward = _BackwardPass(bundle, terminal.lam, config)
    y = np.empty((bundle.n_paths, bundle.n_nodes))
    y[:] = values[:, None]      # stopped paths carry the terminal value
    z = np.zeros((bundle.n_paths, bundle.n_nodes, 3))
    xi = values.copy()
    picard_deltas: list = [[] for _ in backward.alive_counts]
    dt = bundle.grid.dt
    for step in backward:
        alive, k = step.alive, step.k
        target = y[alive, k + 1]
        y_k, z1 = _fit_step(step, target, xi, picard_deltas[k], config, dt)
        y[alive, k], z[alive, k, 0] = y_k, z1
        for j in (1, 2):    # Z2 and Z3 once from the final value
            z[alive, k, j] = step.solver.fit((target - y_k) * step.db[j] / dt)
    return backward.solution(terminal, y[:, 0], xi, picard_deltas, float(np.abs(y).max()),
                             y=y, z=z)


def solve_and_hedge(bundle: PathBundle, terminals: list, config: BsdeConfig) -> list:
    """One backward pass for several terminal conditions of one lambda on one bundle.

    Each step builds its basis once and runs `solve_quadratic_bsde`'s value
    and Z1 fits for every terminal column in turn, then forms the stock
    position X = Z1 / (sigma1 Sigma S).  Per terminal it returns a
    `BsdeSolution` with X, xi, the estimate and the diagnostics, bitwise
    those of `solve_quadratic_bsde` then `hedge_from_solution`; y, z, chi1
    and chi2 are not kept.  The first failure in step order aborts the pass.

    X does not depend on the loading matrix, so it is neither built nor
    checked: on a singular one this returns X where `hedge_from_solution`
    raises (`replication_cost_curve` runs that first, on the same states).
    Terminals of different lambda raise InvalidParams before the pass.
    """
    lams = {t.lam for t in terminals}
    if len(lams) != 1:
        raise InvalidParams(f"terminals must share one impact fraction, got {sorted(lams)}")
    values = np.stack([_terminal_values(bundle, t) for t in terminals])
    backward = _BackwardPass(bundle, lams.pop(), config)
    sigma1 = bundle.params.decomp.sigma1
    y = values.copy()           # each column's value at the node above the step
    xi = values.copy()
    max_abs_y = np.abs(values).max(axis=1)
    x = np.zeros((len(terminals), bundle.n_paths, bundle.n_nodes))
    picard_deltas = [[[] for _ in backward.alive_counts] for _ in terminals]
    for step in backward:
        alive, k = step.alive, step.k
        denom = sigma1 * (bundle.sigma[alive, k] * bundle.s[alive, k])
        for j, deltas in enumerate(picard_deltas):
            y_new, z1 = _fit_step(step, y[j][alive], xi[j], deltas[k], config, bundle.grid.dt)
            y[j][alive] = y_new
            max_abs_y[j] = np.maximum(max_abs_y[j], np.abs(y_new).max())
            x[j, alive, k] = z1 / denom
    return [backward.solution(terminal, y[j], xi[j], picard_deltas[j], float(max_abs_y[j]),
                              x=x[j])
            for j, terminal in enumerate(terminals)]


def hedge_from_solution(solution: BsdeSolution, bundle: PathBundle) -> BsdeSolution:
    """Invert the exposures into (stock, swap1, swap2) positions node by node.

    The hedge is zero at and after the stopping node, which also encodes
    liquidation at maturity for paths that never stop.
    """
    params = bundle.params
    maturities = bundle.grid.require_maturities()
    times = bundle.grid.times()
    x = np.zeros((bundle.n_paths, bundle.n_nodes))
    chi1 = np.zeros((bundle.n_paths, bundle.n_nodes))
    chi2 = np.zeros((bundle.n_paths, bundle.n_nodes))
    for k in range(bundle.n_nodes):
        alive, _ = _alive_paths(solution.tau_index, k)
        if alive is None:
            continue
        u_k, s_k = bundle.u[alive, k], bundle.s[alive, k]
        psi = psi_matrix(times[k], u_k, bundle.v[alive, k], s_k, params, *maturities)
        if np.any(psi.degenerate):
            raise SingularSystem(f"node {k}: degenerate loading matrix on an alive path")
        x[alive, k], chi1[alive, k], chi2[alive, k] = invert_hedge(
            solution.z[alive, k, :], psi, bundle.sigma[alive, k] * s_k,
            zeta_coeff(u_k, params), params)
    return replace(solution, x=x, chi1=chi1, chi2=chi2)
