"""Linear supply curve, execution cost and the impacted quote.

A market order of signed size x executes against the linear curve
S + M x (dollar outlay S x + M x^2).  A fraction lambda of the book
displacement persists: each trade dX shifts the quote by 2 lambda M dX
while the book density 1 / (2 M) is unchanged.  The pre-trade quote at a
node excludes the impact of the trade placed at that node; the post-trade
quote includes it.

Along a path the quote and the cash are running sums over time, which run
fastest time-major.  So the path arrays are worked in blocks of paths
(path_blocks): time_major copies a block's rows transposed, each helper
below acts down the rows of the block arrays it is given and returns a new
one (running_sum and trade_cost work in place), and the caller writes the
results back path-major.  stock_flow is the block prologue that
impacted_quote_path and ledger.cash_decomposed share: S, M, positions,
trades, depth-weighted trades and quote shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, GridMismatch, InvalidParams

_DEPTH_FLOOR = 0.0


def unaffected_price(s, m, x):
    """Price per share on the unaffected curve for an order of size x."""
    return s + m * x


def execution_cost(s, m, x):
    """Dollar outlay for x shares: s*x + m*x**2 (cash received when x < 0)."""
    return s * x + m * x * x


def book_density(m):
    """Shares offered per unit price: 1 / (2 M).  Requires positive depth."""
    m = np.asarray(m, dtype=float)
    if np.any(m <= _DEPTH_FLOOR):
        raise DegenerateState("order-book density undefined at zero depth")
    return 1.0 / (2.0 * m)


def apply_impact(quote, m, lam, dx):
    """Post-trade quote after a market order of size dx."""
    return quote + 2.0 * lam * m * dx


@dataclass(frozen=True)
class ImpactedQuotePath:
    """Pre- and post-trade quotes along every path.

    s0_pre[p, k] is the quote seen by the trade at node k (impact of that
    trade not yet reflected); s0_post[p, k] includes it.
    """

    s0_pre: np.ndarray
    s0_post: np.ndarray


def positions(x, n_paths: int, n_nodes: int) -> np.ndarray:
    """A position path checked against the grid: a 1-d profile or (n_paths, n_nodes)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != n_nodes:
            raise GridMismatch(f"position path has {x.shape[0]} nodes, grid has {n_nodes}")
    elif x.shape != (n_paths, n_nodes):
        raise GridMismatch(f"position array {x.shape} does not match ({n_paths}, {n_nodes})")
    return x


def positions_2d(x, n_paths: int, n_nodes: int) -> np.ndarray:
    """Normalize a position path to (n_paths, n_nodes), broadcasting a 1-d profile."""
    return np.broadcast_to(positions(x, n_paths, n_nodes), (n_paths, n_nodes))


def check_impact_fraction(lam) -> None:
    """Reject a persistent-impact fraction that is non-finite or outside [0, 1]."""
    if not (0.0 <= lam <= 1.0):
        raise InvalidParams(f"impact fraction lambda must lie in [0,1], got {lam!r}")


def path_blocks(n_paths: int) -> list[slice]:
    """The paths in blocks of n_paths // 16 rows, at least 64 and at most 1,024.

    At 64 steps a (65, 1024) float block is 0.5 MB, so the dozen or so
    arrays a ledger builds for one block stay in cache where one whole
    (50000, 65) array is 26 MB.  The floor of 64 rows bounds the Python
    cost per path at small n_paths.
    """
    rows = min(1024, max(64, n_paths // 16))
    return [slice(p, min(p + rows, n_paths)) for p in range(0, n_paths, rows)]


def time_major(a, block: slice) -> np.ndarray:
    """a[block] as a contiguous (n_nodes, rows) copy; a 1-d profile as its (n_nodes, 1) column."""
    if a.ndim == 1:
        return a[:, None]
    return np.ascontiguousarray(a[block].T)


def running_sum(a: np.ndarray) -> np.ndarray:
    """Running sum down the rows of a, in place: row by row, the additions
    of np.cumsum along time, in the same order."""
    prev = a[0]
    for row in a[1:]:
        np.add(row, prev, out=row)
        prev = row
    return a


def trade_flow(x: np.ndarray) -> np.ndarray:
    """Trades dX down the rows of x; the node-0 trade jumps from flat."""
    return np.diff(x, axis=0, prepend=0.0)


def quote_shift(trades, lam: float, slope: float) -> np.ndarray:
    """Quote displacement after each node's trade, down the rows of trades.

    2 lambda * sum_{i<=k} M_i dX_i from depth-weighted stock trades (slope
    1), or 2 lambda M * sum_{i<=k} dchi_i for a curve of constant slope M.
    """
    shift = running_sum(trades.copy())
    shift *= 2.0 * lam * slope
    return shift


def pre_trade_quote(s, shift) -> np.ndarray:
    """Quote seen by the node-k trade: s plus the displacement through node k - 1."""
    pre = s.copy()
    pre[1:] += shift[:-1]
    return pre


def trade_cost(pre, d, m_d) -> np.ndarray:
    """Outlay d * (pre + M d) of trades d at pre-trade quotes pre, written over pre."""
    pre += m_d
    pre *= d
    return pre


def running_integral(weight, path) -> np.ndarray:
    """Left-point sums of weight * d(path) down the rows, 0 at node 0."""
    integral = np.empty_like(path)
    integral[0] = 0.0
    steps = np.subtract(path[1:], path[:-1], out=integral[1:])
    steps *= weight
    running_sum(steps)
    return integral


def stock_flow(bundle, x, lam: float, block: slice):
    """A block's time-major S, M, positions, trades, depth-weighted trades
    and quote shift, in that order."""
    s = time_major(bundle.s, block)
    m = time_major(bundle.m, block)
    x = time_major(x, block)
    dx = trade_flow(x)
    m_dx = m * dx
    return s, m, x, dx, m_dx, quote_shift(m_dx, lam, 1.0)


def impacted_quote_path(bundle, x, lam: float) -> ImpactedQuotePath:
    """Quote path under a grid trading strategy.

    The cumulative displacement after the node-k trade is
    2 lambda * sum_{i<=k} M_i dX_i, which realizes the depth-at-trade-time
    convention (M at the left node plus the covariation of depth and
    position over the step ending at the trade).  The quotes are built on
    time-major blocks of paths and written back path-major.  x is a 1-d
    position profile or an (n_paths, n_nodes) array.
    """
    check_impact_fraction(lam)
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    x = positions(x, n_paths, n_nodes)
    s0_pre, s0_post = np.empty((n_paths, n_nodes)), np.empty((n_paths, n_nodes))
    for block in path_blocks(n_paths):
        s, *_, shift = stock_flow(bundle, x, lam, block)
        s0_pre[block] = pre_trade_quote(s, shift).T
        s0_post[block] = (s + shift).T
    return ImpactedQuotePath(s0_pre=s0_pre, s0_post=s0_post)
