"""Walk through the order-book mechanics on a single trade sequence.

A market order of size x walks the linear supply curve S + M x; the book
density is flat at 1 / (2 M), so the order consumes the band
[S, S + 2 M x] and the quote shifts by the fraction lambda of that band
that is not refilled.
"""

import numpy as np

import liqlab as ll

s, m, lam = 100.0, 0.05, 0.5

print(f"quote {s}, depth slope {m}, persistent impact fraction {lam}")
for x in (10.0, -10.0):
    px = ll.unaffected_price(s, m, x)
    cost = ll.execution_cost(s, m, x)
    post = ll.apply_impact(s, m, lam, x)
    side = "buying" if x > 0 else "selling"
    print(f"  {side} {abs(x):.0f} shares: price per share {px:.2f}, "
          f"cash {'paid' if x > 0 else 'received'} {abs(cost):.2f}, "
          f"quote moves {s:.2f} -> {post:.2f}")

density = ll.book_density(m)
print(f"book density {density:.1f} shares per unit price "
      f"(band consumed by a 10-share buy: [{s}, {s + 2 * m * 10}])")

# the quadrature identity behind the execution cost
x = 7.0
z = np.linspace(s, s + 2 * m * x, 100_001)
integral = np.trapezoid(z, z) * density
print(f"density-integral outlay for 7 shares: {integral:.6f} "
      f"(closed form {ll.execution_cost(s, m, x):.6f})")

# a full round trip at lambda = 1 ends where it started: the quote shift
# earned on the way out exactly refunds the spread paid on the way in
cfg = ll.ScenarioConfig()
grid = cfg.time_grid()
bundle = ll.simulate_paths(cfg.model_params(), grid, 1, seed=7)
bundle.s[:, :] = s
bundle.m[:, :] = m
x_path = np.zeros(grid.n_nodes)
x_path[2:5] = 10.0
strat = ll.Strategy(x=x_path, y0=0.0)
cash = ll.cash_decomposed(strat, bundle, lam=1.0).y_direct
print(f"round trip of 10 shares at lambda=1: terminal cash {cash[0, -1]:+.6f}")
cash0 = ll.cash_decomposed(strat, bundle, lam=0.0).y_direct
print(f"same trip at lambda=0: terminal cash {cash0[0, -1]:+.6f} "
      f"(= -2 M x^2, the pure liquidity cost)")
