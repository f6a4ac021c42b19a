"""Self-financing cash accounting in trade-sum and decomposed form.

A grid strategy holds X shares of stock and chi1, chi2 units of the two
variance swaps; every trade executes on the impacted linear curve of the
corresponding instrument.  The cash account can be computed two ways:

* cash_direct: initial cash minus the cost of every trade, each priced at
  the pre-trade impacted quote plus the curve slope times the trade size;
* cash_decomposed: gains + depth-impact term + quadratic liquidity cost,
  netted against the liquidation value of the open positions.

The two agree path by path, node by node, up to float accumulation; the
discrepancy is reported so the identity stays an executable check.

cash_decomposed builds both forms in one pass.  The trades dX, the
depth-weighted trades M dX and their running sum (the quote displacement)
are computed once and serve the quotes, the trade-by-trade cash and the
liquidation value; each attribution term is one running sum written into
its report array, and the sums keep the order y0 + gains + impact term +
quadratic cost (+ swap terms) - liquidation value.  A 1-d position profile
is differenced as 1-d and broadcast afterwards.  cash_direct and
order_book.impacted_quote_path go through the same helpers, so each
formula exists once.

arbitrage_harness takes each strategy's terminal gain from the last report
columns, in the order of LedgerReport.gain_paths, and drops the report
before it builds the next, so one report is alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidParams, NotSubmartingaleParams
from .market import ModelParams, PathBundle, simulate_paths
from .noise import TimeGrid
from .order_book import (
    ImpactedQuotePath,
    check_impact_fraction,
    positions,
    positions_2d,
    pre_trade_quote,
    quote_shift,
    trade_flow,
)
from .table import grid_index, write_table


@dataclass(frozen=True)
class Strategy:
    """Grid-aligned positions (post-trade at each node) plus initial cash.

    x, chi1, chi2 may be 1-d time profiles (shared by all paths) or
    (n_paths, n_nodes) arrays.  The position before node 0 is zero by
    convention, so x[..., 0] is also the node-0 trade.
    """

    x: np.ndarray
    chi1: np.ndarray | None = None
    chi2: np.ndarray | None = None
    y0: float = 0.0

    def stock(self, n_paths: int, n_nodes: int) -> np.ndarray:
        return positions_2d(self.x, n_paths, n_nodes)

    def swap(self, leg: int, n_paths: int, n_nodes: int) -> np.ndarray:
        pos = self.chi1 if leg == 1 else self.chi2
        if pos is None:
            return np.zeros((n_paths, n_nodes))
        return positions_2d(pos, n_paths, n_nodes)

    def has_swaps(self) -> bool:
        return self.chi1 is not None or self.chi2 is not None

    def is_closed(self, n_paths: int, n_nodes: int) -> bool:
        flat = np.all(self.stock(n_paths, n_nodes)[:, -1] == 0.0)
        if self.has_swaps():
            flat = flat and np.all(self.swap(1, n_paths, n_nodes)[:, -1] == 0.0)
            flat = flat and np.all(self.swap(2, n_paths, n_nodes)[:, -1] == 0.0)
        return bool(flat)


@dataclass(frozen=True)
class SwapLiquidity:
    """Constant supply-curve slopes and impact fractions of the two swaps."""

    m1: float
    m2: float
    l1: float
    l2: float

    def __post_init__(self):
        if self.m1 <= 0 or self.m2 <= 0:
            raise InvalidParams("swap curve slopes must be positive")
        for lam in (self.l1, self.l2):
            check_impact_fraction(lam)


@dataclass(frozen=True)
class LedgerReport:
    """Per-path cash in both forms together with the decomposed attribution.

    All arrays are (n_paths, n_nodes); term columns are cumulative.
    """

    y_direct: np.ndarray
    y_decomposed: np.ndarray
    gains: np.ndarray            # sum X dS
    impact_term: np.ndarray      # -lambda * sum X^2 dM
    quad_cost: np.ndarray        # -(1-lambda) * sum M (dX)^2
    swap_gains: np.ndarray       # sum chi dG over both legs
    swap_quad: np.ndarray        # -(1-lambda_i) * M'_i sum (dchi)^2 over both legs
    liq_value: np.ndarray        # liquidation value of open positions
    discrepancy: float           # max |direct - decomposed| / max(1, scale)

    def gain_paths(self) -> np.ndarray:
        """Running decomposed gain (the admissibility process)."""
        return self.gains + self.impact_term + self.quad_cost + self.swap_gains + self.swap_quad

    def terminal_gain(self) -> np.ndarray:
        """gain_paths()[:, -1], summed in the same order from the last columns only."""
        return (self.gains[:, -1] + self.impact_term[:, -1] + self.quad_cost[:, -1]
                + self.swap_gains[:, -1] + self.swap_quad[:, -1])


def liquidation_value(x, quote_post, m, lam, out=None):
    """Cash from closing x shares by a continuous finite-variation unwind.

    With out given (it may be quote_post itself) the value is written there.
    """
    value = np.subtract(quote_post, lam * m * x, out=out)
    return np.multiply(x, value, out=out)


def _swap_legs(strategy, bundle, swaps, swap_prices) -> list:
    """Per leg (positions, trades, prices, slope, impact fraction, quote
    displacement), empty when unused."""
    if not strategy.has_swaps():
        return []
    if swaps is None or swap_prices is None:
        raise InvalidParams("strategy trades swaps but no swap liquidity/prices given")
    legs = []
    for leg, (m_slope, lam) in enumerate([(swaps.m1, swaps.l1), (swaps.m2, swaps.l2)], start=1):
        prices = np.asarray(swap_prices[leg - 1], dtype=float)
        if prices.shape != (bundle.n_paths, bundle.n_nodes):
            raise GridMismatch("swap price paths do not match the bundle grid")
        pos = strategy.swap(leg, bundle.n_paths, bundle.n_nodes)
        dpos = np.diff(pos, axis=1, prepend=0.0)
        legs.append((pos, dpos, prices, m_slope, lam, quote_shift(dpos, lam, m_slope)))
    return legs


def _trade_cost(pre, d, m_d) -> np.ndarray:
    """Outlay d * (pre + M d) of trades d at pre-trade quotes pre, written over pre."""
    pre += m_d
    pre *= d
    return pre


def _cash(y0: float, cost: np.ndarray, legs) -> np.ndarray:
    """y0 minus the running sum of the stock outlay cost and every swap leg's outlay.

    The cash path is written over cost.
    """
    for _, dpos, prices, m_slope, _, shift in legs:
        cost += _trade_cost(pre_trade_quote(prices, shift), dpos, m_slope * dpos)
    np.cumsum(cost, axis=1, out=cost)
    return np.subtract(y0, cost, out=cost)


def cash_direct(
    strategy: Strategy,
    quotes: ImpactedQuotePath,
    bundle: PathBundle,
    swaps: SwapLiquidity | None = None,
    swap_prices=None,
) -> np.ndarray:
    """Cash path from the trade-by-trade definition.

    Each stock trade dX at node k costs dX * (S0_pre_k + M_k dX); swap
    trades are priced the same way on their own impacted constant-slope
    curves.
    """
    x = positions(strategy.x, bundle.n_paths, bundle.n_nodes)
    if quotes.s0_pre.shape != (bundle.n_paths, bundle.n_nodes):
        raise GridMismatch("quotes do not match the strategy grid")
    dx, m_dx = trade_flow(bundle.m, x)
    cost = _trade_cost(quotes.s0_pre.copy(), dx, m_dx)
    return _cash(strategy.y0, cost, _swap_legs(strategy, bundle, swaps, swap_prices))


def _running_integral(weight, path) -> np.ndarray:
    """Left-point sums of weight * d(path) over the steps, 0 at node 0."""
    out = np.empty(path.shape)
    out[:, 0] = 0.0
    steps = out[:, 1:]
    np.subtract(path[:, 1:], path[:, :-1], out=steps)
    steps *= weight
    np.cumsum(steps, axis=1, out=steps)
    return out


def cash_decomposed(
    strategy: Strategy,
    bundle: PathBundle,
    lam: float | None = None,
    swaps: SwapLiquidity | None = None,
    swap_prices=None,
) -> LedgerReport:
    """Cash path reconstructed from the gains/impact/quadratic attribution.

    Also builds the cash_direct path from the same trades, depth-weighted
    trades and quote displacement, and reports the maximum relative
    discrepancy between the two forms.  Each term is one pass written into
    the report's own array.
    """
    if lam is None:
        lam = bundle.params.lambda_impact
    check_impact_fraction(lam)
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    s, m = bundle.s, bundle.m
    x = positions(strategy.x, n_paths, n_nodes)
    legs = _swap_legs(strategy, bundle, swaps, swap_prices)
    dx, m_dx = trade_flow(m, x)
    x_prev = x[..., :-1]

    gains = _running_integral(x_prev, s)
    impact_term = _running_integral(x_prev ** 2, m)
    impact_term[:, 1:] *= -lam

    quad_cost = m * dx ** 2
    np.cumsum(quad_cost, axis=1, out=quad_cost)
    quad_cost *= -(1.0 - lam)

    shift = quote_shift(m_dx, lam)
    y_dir = _cash(strategy.y0, _trade_cost(pre_trade_quote(s, shift), dx, m_dx), legs)
    liq = liquidation_value(x, np.add(s, shift, out=shift), m, lam, out=shift)

    swap_gains = np.zeros((n_paths, n_nodes))
    swap_quad = np.zeros((n_paths, n_nodes))
    for pos, dpos, prices, m_slope, leg_lam, leg_shift in legs:
        swap_gains += _running_integral(pos[:, :-1], prices)
        swap_quad += -(1.0 - leg_lam) * m_slope * np.cumsum(dpos ** 2, axis=1)
        liq += liquidation_value(pos, prices + leg_shift, m_slope, leg_lam)

    # y0 + 0.0 turns a -0.0 into +0.0, which is all that adding the +0.0
    # swap columns of a stock-only strategy would change.
    y_dec = np.add(strategy.y0 + 0.0, gains)
    y_dec += impact_term
    y_dec += quad_cost
    if legs:
        y_dec += swap_gains
        y_dec += swap_quad
    y_dec -= liq

    scratch = m_dx
    scale = max(1.0, float(np.abs(y_dir, out=scratch).max()))
    np.abs(np.subtract(y_dir, y_dec, out=scratch), out=scratch)
    disc = float(scratch.max() / scale)
    return LedgerReport(
        y_direct=y_dir, y_decomposed=y_dec, gains=gains, impact_term=impact_term,
        quad_cost=quad_cost, swap_gains=swap_gains, swap_quad=swap_quad,
        liq_value=liq, discrepancy=disc,
    )


def check_admissible(gain_paths: np.ndarray, a: float) -> np.ndarray:
    """True per path iff the running gain never drops below -a."""
    if a < 0:
        raise InvalidParams("admissibility bound must be nonnegative")
    return np.asarray(gain_paths).min(axis=1) >= -a


@dataclass(frozen=True)
class HarnessResult:
    means: np.ndarray
    stderrs: np.ndarray
    violates: bool
    labels: list

    @property
    def worst_z(self) -> float:
        return float((self.means / np.where(self.stderrs > 0, self.stderrs, 1.0)).max())


def arbitrage_harness(
    strategy_family,
    params: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> HarnessResult:
    """Estimate mean terminal gains of admissible closed strategies.

    With nonnegative depth drift every admissible strategy has mean gain
    <= 0, so a sample mean exceeding 3 standard errors falsifies the
    construction.  Family entries may be Strategy instances or callables
    bundle -> Strategy (for reactive, predictable position rules).
    """
    if not params.submartingale_ok:
        raise NotSubmartingaleParams(
            "harness needs identity depth map with positive gamma and eta"
        )
    bundle = simulate_paths(params, grid, n_paths, seed)
    means, errs, labels = [], [], []
    for i, entry in enumerate(strategy_family):
        z_t = _terminal_gain(entry, bundle, i)
        means.append(float(z_t.mean()))
        errs.append(float(z_t.std(ddof=1) / np.sqrt(n_paths)))
        labels.append(getattr(entry, "label", f"strategy_{i}"))
    means = np.array(means)
    errs = np.array(errs)
    violates = bool(np.any(means - 3.0 * errs > 0.0))
    return HarnessResult(means=means, stderrs=errs, violates=violates, labels=labels)


def _terminal_gain(entry, bundle: PathBundle, i: int) -> np.ndarray:
    """Terminal decomposed gain of one family entry; its ledger report dies on return."""
    strategy = entry(bundle) if callable(entry) else entry
    if not strategy.is_closed(bundle.n_paths, bundle.n_nodes):
        raise InvalidParams(f"harness strategy {i} is not closed")
    return cash_decomposed(strategy, bundle).terminal_gain()


def round_trip_family(grid: TimeGrid, n_strategies: int, base_size: float, seed: int):
    """Deterministic closed round trips plus a few reactive position rules."""
    rng = np.random.default_rng(seed)
    n_nodes = grid.n_nodes
    family = []
    n_deterministic = max(n_strategies - 2, 1)
    for i in range(n_deterministic):
        entry = int(rng.integers(0, n_nodes - 2))
        exit_ = int(rng.integers(entry + 1, n_nodes - 1))
        size = base_size * float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        x = np.zeros(n_nodes)
        x[entry:exit_ + 1] = size
        x[-1] = 0.0
        family.append(Strategy(x=x))
    if n_strategies >= n_deterministic + 1:
        family.append(_trend_follower(base_size))
    if n_strategies >= n_deterministic + 2:
        family.append(_vol_dodger(base_size))
    return family[:n_strategies]


def _trend_follower(size: float):
    def build(bundle) -> Strategy:
        x = np.zeros((bundle.n_paths, bundle.n_nodes))
        up = np.diff(bundle.s, axis=1) > 0
        x[:, 1:-1] = size * np.where(up[:, :-1], 1.0, -1.0)
        return Strategy(x=x)

    build.label = "trend_follower"
    return build


def _vol_dodger(size: float):
    def build(bundle) -> Strategy:
        x = np.zeros((bundle.n_paths, bundle.n_nodes))
        calm = bundle.sigma[:, :-2] < np.median(bundle.sigma[:, 0])
        x[:, 1:-1] = size * calm
        return Strategy(x=x)

    build.label = "vol_dodger"
    return build


def export_ledger_csv(bundle, strategy: Strategy, report: LedgerReport, path) -> None:
    """Write (path, step, t, X, chi1, chi2, Y, gains, impact_term, quad_cost, liq_value)."""
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    write_table(path, ["path", "step", "t", "X", "chi1", "chi2", "Y",
                       "gains", "impact_term", "quad_cost", "liq_value"],
                [*grid_index(n_paths, bundle.grid.times()), strategy.stock(n_paths, n_nodes),
                 strategy.swap(1, n_paths, n_nodes), strategy.swap(2, n_paths, n_nodes),
                 report.y_direct, report.gains, report.impact_term, report.quad_cost,
                 report.liq_value])
