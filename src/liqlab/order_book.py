"""Linear supply curve, execution cost and the impacted quote.

A market order of signed size x executes against the linear curve
S + M x (dollar outlay S x + M x^2).  A fraction lambda of the book
displacement persists: each trade dX shifts the quote by 2 lambda M dX
while the book density 1 / (2 M) is unchanged.  The pre-trade quote at a
node excludes the impact of the trade placed at that node; the post-trade
quote includes it.
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


def trade_flow(m, x):
    """Trades dX (the node-0 trade jumps from flat) and depth-weighted trades M dX.

    A 1-d profile is differenced as 1-d; M dX has the shape of M.
    """
    dx = np.diff(x, axis=-1, prepend=0.0)
    return dx, m * dx


def quote_shift(trades, lam: float, slope: float = 1.0) -> np.ndarray:
    """Cumulative quote displacement after the node-k trade.

    2 lambda * sum_{i<=k} M_i dX_i from depth-weighted stock trades, or
    2 lambda M * sum_{i<=k} dchi_i for a curve of constant slope M.
    """
    shift = np.cumsum(trades, axis=1)
    shift *= 2.0 * lam * slope
    return shift


def pre_trade_quote(s, shift) -> np.ndarray:
    """Quote seen by the node-k trade: s plus the displacement through node k - 1."""
    pre = s.copy()
    pre[:, 1:] += shift[:, :-1]
    return pre


def impacted_quote_path(bundle, strategy, lam: float) -> ImpactedQuotePath:
    """Quote path under a grid trading strategy.

    The cumulative displacement after the node-k trade is
    2 lambda * sum_{i<=k} M_i dX_i, which realizes the depth-at-trade-time
    convention (M at the left node plus the covariation of depth and
    position over the step ending at the trade).
    """
    check_impact_fraction(lam)
    x = positions(getattr(strategy, "x", strategy), bundle.n_paths, bundle.n_nodes)
    shift = quote_shift(trade_flow(bundle.m, x)[1], lam)
    return ImpactedQuotePath(s0_pre=pre_trade_quote(bundle.s, shift), s0_post=bundle.s + shift)
