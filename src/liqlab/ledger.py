"""Self-financing cash accounting: the trade-by-trade cash and its decomposition.

A grid strategy holds X shares of stock and chi1, chi2 units of the two
variance swaps; every trade executes on the impacted linear curve of the
corresponding instrument.  cash_decomposed builds the cash account two ways:

* y_direct: initial cash minus the cost of every trade, each priced at
  the pre-trade impacted quote plus the curve slope times the trade size;
* y_decomposed: gains + depth-impact term + quadratic liquidity cost,
  netted against the liquidation value of the open positions.

The two agree path by path, node by node, up to float accumulation; the
discrepancy is reported so the identity stays an executable check.

Both forms are built on the blocks of paths that order_book.path_blocks
gives.  Each block's S, M and positions are copied time-major into
(n_nodes, rows) arrays, where every difference, product and running sum
runs along contiguous rows that fit in cache; the results are written back
into the path-major (n_paths, n_nodes) report arrays.  Within a block the
trades dX, the depth-weighted trades M dX and their running sum (the quote
displacement) come once from order_book.stock_flow, the prologue
order_book.impacted_quote_path shares, and serve the quotes, the
trade-by-trade cash and the liquidation value; each attribution term is
one running sum, and the sums keep the order y0 + gains + impact term +
quadratic cost (+ swap terms) - liquidation value, added in place into one
block array.  A running sum adds row k - 1 into row k, the additions of
np.cumsum along time in its order, so every report bit is the same at any
block size.  A 1-d position profile is differenced as one (n_nodes, 1)
column and broadcast.

With terminal_only the same blocks write only their last node, into
(n_paths, 1) report arrays (order_book.report_rows), while the discrepancy
still takes its peaks over every node.  arbitrage_harness builds such a
report for each strategy, reads its terminal gain in the order of
LedgerReport.gain_paths, and drops it before it builds the next, so one
report is alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, InvalidParams, NotSubmartingaleParams
from .market import ModelParams, PathBundle, simulate_paths
from .noise import TimeGrid
from .order_book import (
    check_impact_fraction,
    path_blocks,
    positions,
    positions_2d,
    pre_trade_quote,
    quote_shift,
    report_rows,
    running_integral,
    running_sum,
    stock_flow,
    time_major,
    trade_cost,
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
            return np.broadcast_to(0.0, (n_paths, n_nodes))
        return positions_2d(pos, n_paths, n_nodes)

    def has_swaps(self) -> bool:
        return self.chi1 is not None or self.chi2 is not None

    def is_closed(self, n_paths: int, n_nodes: int) -> bool:
        return all(np.all(positions(pos, n_paths, n_nodes)[..., -1] == 0.0)
                   for pos in (self.x, self.chi1, self.chi2) if pos is not None)


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

    All arrays are (n_paths, n_nodes); term columns are cumulative.  Built
    with terminal_only they are (n_paths, 1) and hold the last node only;
    the discrepancy is the same.  For a strategy without swaps, swap_gains
    and swap_quad are read-only broadcast views of 0.0 that hold no memory.
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


def liquidation_value(x, quote_post, m, lam):
    """Cash x (quote_post - lambda M x) from closing x shares by a continuous
    finite-variation unwind."""
    return x * (quote_post - lam * m * x)


class _Leg(NamedTuple):
    pos: np.ndarray         # a 1-d profile or (n_paths, n_nodes)
    prices: np.ndarray      # (n_paths, n_nodes)
    m_slope: float
    lam: float


def _swap_legs(strategy, bundle, swaps, swap_prices) -> list[_Leg]:
    """Both legs of a swap strategy, empty when it trades none.

    A position given as a 1-d profile stays one; an unused leg is a flat
    profile.
    """
    if not strategy.has_swaps():
        return []
    if swaps is None or swap_prices is None:
        raise InvalidParams("strategy trades swaps but no swap liquidity/prices given")
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    legs = []
    for pos, prices, m_slope, lam in ((strategy.chi1, swap_prices[0], swaps.m1, swaps.l1),
                                      (strategy.chi2, swap_prices[1], swaps.m2, swaps.l2)):
        prices = np.asarray(prices, dtype=float)
        if prices.shape != (n_paths, n_nodes):
            raise GridMismatch("swap price paths do not match the bundle grid")
        pos = np.zeros(n_nodes) if pos is None else positions(pos, n_paths, n_nodes)
        legs.append(_Leg(pos, prices, m_slope, lam))
    return legs


def cash_decomposed(
    strategy: Strategy,
    bundle: PathBundle,
    lam: float | None = None,
    swaps: SwapLiquidity | None = None,
    swap_prices=None,
    terminal_only: bool = False,
) -> LedgerReport:
    """Cash path reconstructed from the gains/impact/quadratic attribution.

    Also builds the trade-by-trade cash, where a trade dX at node k costs
    dX * (S0_pre_k + M_k dX) on its instrument's impacted curve, from the
    same trades and quote displacement, and reports the maximum relative
    discrepancy between the two forms.  Each block of paths is worked
    time-major and written into the report arrays: every node, or with
    terminal_only the last node alone (order_book.report_rows).
    """
    if lam is None:
        lam = bundle.params.lambda_impact
    check_impact_fraction(lam)
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    shape, keep = report_rows(n_paths, n_nodes, terminal_only)
    x = positions(strategy.x, n_paths, n_nodes)
    legs = _swap_legs(strategy, bundle, swaps, swap_prices)
    y_dir, y_dec, gains, impact_term, quad_cost, liq = (np.empty(shape) for _ in range(6))
    if legs:
        swap_gains, swap_quad = np.empty(shape), np.empty(shape)
    else:
        swap_gains = swap_quad = np.broadcast_to(0.0, shape)
    peaks = []      # per block: max |y_dir| and max |y_dir - y_dec|
    for block in path_blocks(n_paths):
        s, m, xb, dx, m_dx, shift = stock_flow(bundle, x, lam, block)
        cost = trade_cost(pre_trade_quote(s, shift), dx, m_dx)
        liquidation = liquidation_value(xb, s + shift, m, lam)

        # Each term is written out and added in the order of the sum.
        # y0 + 0.0 turns a -0.0 into +0.0, which is all that adding the
        # +0.0 swap columns of a stock-only strategy would change.
        term = running_integral(xb[:-1], s)
        gains[block] = term[keep].T
        decomposed = strategy.y0 + 0.0 + term
        term = running_integral(np.square(xb[:-1]), m)
        term[1:] *= -lam
        impact_term[block] = term[keep].T
        decomposed += term
        term = running_sum(m * np.square(dx))
        term *= -(1.0 - lam)
        quad_cost[block] = term[keep].T
        decomposed += term
        if legs:
            leg_gains, leg_quad = np.zeros_like(s), np.zeros_like(s)
            for leg in legs:
                pos = time_major(leg.pos, block)
                dpos = trade_flow(pos)
                prices = time_major(leg.prices, block)
                leg_shift = quote_shift(dpos, leg.lam, leg.m_slope)
                leg_gains += running_integral(pos[:-1], prices)
                leg_quad += -(1.0 - leg.lam) * leg.m_slope * running_sum(np.square(dpos))
                cost += trade_cost(pre_trade_quote(prices, leg_shift), dpos, leg.m_slope * dpos)
                liquidation += liquidation_value(pos, prices + leg_shift, leg.m_slope, leg.lam)
            swap_gains[block] = leg_gains[keep].T
            swap_quad[block] = leg_quad[keep].T
            decomposed += leg_gains
            decomposed += leg_quad
        decomposed -= liquidation
        liq[block] = liquidation[keep].T
        y_dec[block] = decomposed[keep].T

        direct = np.subtract(strategy.y0, running_sum(cost), out=cost)
        y_dir[block] = direct[keep].T
        peaks.append((np.abs(direct).max(), np.abs(direct - decomposed).max()))
        # freed before the next block allocates, which then reuses their memory
        del s, m, xb, dx, m_dx, shift, cost, liquidation, term, decomposed, direct

    # numpy's max propagates a NaN from any block; Python's max(0.0, nan)
    # would return 0.0
    top_direct, top_gap = np.max(peaks, axis=0)
    scale = max(1.0, float(top_direct))
    disc = float(top_gap / scale)
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
    if n_paths < 2:
        raise InvalidParams("harness needs at least 2 paths for a standard error")
    family = list(strategy_family)
    if not family:
        raise InvalidParams("harness needs at least one strategy")
    bundle = simulate_paths(params, grid, n_paths, seed)
    means, errs, labels = [], [], []
    for i, entry in enumerate(family):
        z_t = _terminal_gain(entry, bundle, i)
        means.append(float(z_t.mean()))
        errs.append(float(z_t.std(ddof=1) / np.sqrt(n_paths)))
        labels.append(getattr(entry, "label", f"strategy_{i}"))
    means = np.array(means)
    errs = np.array(errs)
    violates = bool(np.any(means - 3.0 * errs > 0.0))
    return HarnessResult(means=means, stderrs=errs, violates=violates, labels=labels)


def _terminal_gain(entry, bundle: PathBundle, i: int) -> np.ndarray:
    """Terminal decomposed gain of one family entry from a terminal-only
    ledger report, which dies on return."""
    strategy = entry(bundle) if callable(entry) else entry
    if not strategy.is_closed(bundle.n_paths, bundle.n_nodes):
        raise InvalidParams(f"harness strategy {i} is not closed")
    return cash_decomposed(strategy, bundle, terminal_only=True).terminal_gain()


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
        s = bundle.s
        # long after a rise, short otherwise
        x[:, 1:-1] = -size
        np.copyto(x[:, 1:-1], size, where=s[:, 1:-1] > s[:, :-2])
        return Strategy(x=x)

    build.label = "trend_follower"
    return build


def _vol_dodger(size: float):
    def build(bundle) -> Strategy:
        x = np.zeros((bundle.n_paths, bundle.n_nodes))
        calm = bundle.sigma[:, :-2] < np.median(bundle.sigma[:, 0])
        np.multiply(calm, size, out=x[:, 1:-1])
        return Strategy(x=x)

    build.label = "vol_dodger"
    return build


def export_ledger_csv(bundle, strategy: Strategy, report: LedgerReport, path) -> None:
    """Write (path, step, t, X, chi1, chi2, Y, gains, impact_term, quad_cost, liq_value)."""
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    if report.y_direct.shape != (n_paths, n_nodes):
        raise GridMismatch("ledger report does not cover every node of the bundle grid")
    write_table(path, ["path", "step", "t", "X", "chi1", "chi2", "Y",
                       "gains", "impact_term", "quad_cost", "liq_value"],
                [*grid_index(n_paths, bundle.grid.times()), strategy.stock(n_paths, n_nodes),
                 strategy.swap(1, n_paths, n_nodes), strategy.swap(2, n_paths, n_nodes),
                 report.y_direct, report.gains, report.impact_term, report.quad_cost,
                 report.liq_value])
