"""The block ledger against the two-form ledger it replaced.

`reference_cash_decomposed` keeps the earlier formulas verbatim: the quote
path, the trade-by-trade cash and the attribution terms each computed from
fresh full (n_paths, n_nodes) temporaries.  The package must reproduce
every report array and the discrepancy bit for bit, within one block of
paths and across many, and the arbitrage harness must reproduce the means
and standard errors of the route that takes the last column of
`gain_paths()`.  With terminal_only, the ledger and the quote path must
write the last column of their full reports, bit for bit.  The memory
tests bound what one ledger allocates and check that the harness holds one
report at a time, and only its terminal column.
"""

import weakref

import numpy as np
import pytest

from liqlab import (
    ImpactedQuotePath,
    LedgerReport,
    Strategy,
    arbitrage_harness,
    cash_decomposed,
    impacted_quote_path,
    ledger,
    round_trip_family,
    simulate_paths,
    swap_price_paths,
)
from liqlab.order_book import path_blocks, positions_2d

from conftest import override, traced_peak

REPORT_ARRAYS = ("y_direct", "y_decomposed", "gains", "impact_term", "quad_cost",
                 "swap_gains", "swap_quad", "liq_value")

# one block of paths, and 17 blocks of 187 paths whose last one is short
PATH_COUNTS = (40, 3001)
# one block of 1, 63 and 64 paths; 17 blocks of 93 and 20 of 1,000
TERMINAL_PATH_COUNTS = (1, 63, 64, 1500, 20_000)


# -- the earlier ledger, verbatim ---------------------------------------------

def reference_impacted_quote_path(bundle, strategy, lam):
    x = getattr(strategy, "x", strategy)
    x = positions_2d(x, bundle.n_paths, bundle.n_nodes)
    dx = np.diff(x, axis=1, prepend=0.0)
    impact = 2.0 * lam * np.cumsum(bundle.m * dx, axis=1)
    s0_post = bundle.s + impact
    s0_pre = bundle.s.copy()
    s0_pre[:, 1:] += impact[:, :-1]
    return ImpactedQuotePath(s0_pre=s0_pre, s0_post=s0_post)


def reference_liquidation_value(x, quote_post, m, lam):
    return x * (quote_post - lam * m * x)


def reference_swap_legs(strategy, bundle, swaps, swap_prices):
    if not strategy.has_swaps():
        return []
    legs = []
    for leg, (m_slope, lam) in enumerate([(swaps.m1, swaps.l1), (swaps.m2, swaps.l2)], start=1):
        prices = np.asarray(swap_prices[leg - 1], dtype=float)
        legs.append((strategy.swap(leg, bundle.n_paths, bundle.n_nodes), prices, m_slope, lam))
    return legs


def reference_cash_direct(strategy, quotes, bundle, swaps=None, swap_prices=None):
    x = strategy.stock(bundle.n_paths, bundle.n_nodes)
    dx = np.diff(x, axis=1, prepend=0.0)
    cost = dx * (quotes.s0_pre + bundle.m * dx)
    for pos, prices, m_slope, lam in reference_swap_legs(strategy, bundle, swaps, swap_prices):
        dpos = np.diff(pos, axis=1, prepend=0.0)
        impact = 2.0 * lam * m_slope * np.cumsum(dpos, axis=1)
        pre = prices.copy()
        pre[:, 1:] += impact[:, :-1]
        cost += dpos * (pre + m_slope * dpos)
    return strategy.y0 - np.cumsum(cost, axis=1)


def reference_cash_decomposed(strategy, bundle, lam=None, swaps=None, swap_prices=None):
    if lam is None:
        lam = bundle.params.lambda_impact
    n_paths, n_nodes = bundle.n_paths, bundle.n_nodes
    x = strategy.stock(n_paths, n_nodes)
    dx = np.diff(x, axis=1, prepend=0.0)

    ds = np.diff(bundle.s, axis=1)
    dm = np.diff(bundle.m, axis=1)
    gains = np.zeros((n_paths, n_nodes))
    impact_term = np.zeros((n_paths, n_nodes))
    gains[:, 1:] = np.cumsum(x[:, :-1] * ds, axis=1)
    impact_term[:, 1:] = -lam * np.cumsum(x[:, :-1] ** 2 * dm, axis=1)
    quad_cost = -(1.0 - lam) * np.cumsum(bundle.m * dx ** 2, axis=1)

    quotes = reference_impacted_quote_path(bundle, x, lam)
    liq = reference_liquidation_value(x, quotes.s0_post, bundle.m, lam)

    swap_gains = np.zeros((n_paths, n_nodes))
    swap_quad = np.zeros((n_paths, n_nodes))
    for pos, prices, m_slope, leg_lam in reference_swap_legs(strategy, bundle, swaps,
                                                             swap_prices):
        dpos = np.diff(pos, axis=1, prepend=0.0)
        dg = np.diff(prices, axis=1)
        swap_gains[:, 1:] += np.cumsum(pos[:, :-1] * dg, axis=1)
        swap_quad += -(1.0 - leg_lam) * m_slope * np.cumsum(dpos ** 2, axis=1)
        post = prices + 2.0 * leg_lam * m_slope * np.cumsum(dpos, axis=1)
        liq += reference_liquidation_value(pos, post, m_slope, leg_lam)

    y_dec = strategy.y0 + gains + impact_term + quad_cost + swap_gains + swap_quad - liq
    y_dir = reference_cash_direct(strategy, quotes, bundle, swaps, swap_prices)
    scale = max(1.0, float(np.abs(y_dir).max()))
    disc = float(np.abs(y_dir - y_dec).max() / scale)
    return LedgerReport(
        y_direct=y_dir, y_decomposed=y_dec, gains=gains, impact_term=impact_term,
        quad_cost=quad_cost, swap_gains=swap_gains, swap_quad=swap_quad,
        liq_value=liq, discrepancy=disc,
    )


def reference_harness(family, params, grid, n_paths, seed):
    bundle = simulate_paths(params, grid, n_paths, seed)
    means, errs = [], []
    for entry in family:
        strategy = entry(bundle) if callable(entry) else entry
        z_t = reference_cash_decomposed(strategy, bundle).gain_paths()[:, -1]
        means.append(float(z_t.mean()))
        errs.append(float(z_t.std(ddof=1) / np.sqrt(n_paths)))
    return np.array(means), np.array(errs)


# -- helpers --------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def ledger_case(default_config, kind, n_paths):
    cfg = override(default_config, grid__n_steps=24)
    bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), n_paths, seed=17)
    rng = np.random.default_rng(29)
    y0 = 12.5
    if kind == "profile":
        x = rng.normal(0, 3, size=bundle.n_nodes)
        return bundle, Strategy(x=x, y0=y0), {}
    x = rng.normal(0, 3, size=(bundle.n_paths, bundle.n_nodes))
    if kind == "array":
        return bundle, Strategy(x=x, y0=y0), {}
    specs = cfg.swap_specs()
    prices = (swap_price_paths(bundle, specs[0]), swap_price_paths(bundle, specs[1]))
    chi1 = rng.normal(0, 1, size=bundle.n_nodes)
    chi2 = rng.normal(0, 1, size=(bundle.n_paths, bundle.n_nodes))
    return (bundle, Strategy(x=x, chi1=chi1, chi2=chi2, y0=y0),
            {"swaps": cfg.swap_liquidity(), "swap_prices": prices})


# -- tests ------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("kind", ["profile", "array", "swap legs"])
def test_report_bitwise_equal_to_reference(default_config, kind, lam):
    sizes = [block.stop - block.start for block in path_blocks(PATH_COUNTS[-1])]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    for n_paths in PATH_COUNTS:
        bundle, strategy, extra = ledger_case(default_config, kind, n_paths)
        got = cash_decomposed(strategy, bundle, lam=lam, **extra)
        want = reference_cash_decomposed(strategy, bundle, lam=lam, **extra)
        for name in REPORT_ARRAYS:
            assert same_bits(getattr(got, name), getattr(want, name)), (n_paths, name)
        assert same_bits(got.discrepancy, want.discrepancy), n_paths
        assert same_bits(got.terminal_gain(), want.gain_paths()[:, -1]), n_paths

        quotes = impacted_quote_path(bundle, strategy.x, lam)
        want_quotes = reference_impacted_quote_path(bundle, strategy, lam)
        assert same_bits(quotes.s0_pre, want_quotes.s0_pre), n_paths
        assert same_bits(quotes.s0_post, want_quotes.s0_post), n_paths


@pytest.mark.parametrize("kind", ["profile", "array", "swap legs"])
def test_terminal_only_is_the_last_column(default_config, kind):
    for n_paths in TERMINAL_PATH_COUNTS:
        bundle, strategy, extra = ledger_case(default_config, kind, n_paths)
        full = cash_decomposed(strategy, bundle, lam=0.37, **extra)
        last = cash_decomposed(strategy, bundle, lam=0.37, terminal_only=True, **extra)
        for name in REPORT_ARRAYS:
            assert same_bits(getattr(last, name), getattr(full, name)[:, -1:]), (n_paths, name)
        assert same_bits(last.discrepancy, full.discrepancy), n_paths
        assert same_bits(last.terminal_gain(), full.terminal_gain()), n_paths
        assert same_bits(last.gain_paths(), full.gain_paths()[:, -1:]), n_paths

        quotes = impacted_quote_path(bundle, strategy.x, 0.37)
        last_quotes = impacted_quote_path(bundle, strategy.x, 0.37, terminal_only=True)
        assert same_bits(last_quotes.s0_pre, quotes.s0_pre[:, -1:]), n_paths
        assert same_bits(last_quotes.s0_post, quotes.s0_post[:, -1:]), n_paths


def test_harness_bitwise_equal_to_gain_paths_route(default_config):
    cfg = override(default_config, model__gamma=0.5, model__eta=0.5, grid__n_steps=32)
    grid = cfg.time_grid()
    family = round_trip_family(grid, 6, base_size=2.0, seed=10)
    result = arbitrage_harness(family, cfg.model_params(), grid, 400, seed=2)
    means, errs = reference_harness(family, cfg.model_params(), grid, 400, seed=2)
    assert same_bits(result.means, means)
    assert same_bits(result.stderrs, errs)


class TestLedgerMemory:
    """At 2,000 paths x 64 steps one ledger allocates its report plus a few
    work arrays, and the harness never keeps two reports alive."""

    def test_cash_decomposed_peak(self, default_config):
        cfg = override(default_config, grid__n_steps=64)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 2000, seed=21)
        x = np.random.default_rng(5).normal(0, 2, size=(bundle.n_paths, bundle.n_nodes))
        report, peak = traced_peak(lambda: cash_decomposed(Strategy(x=x), bundle))
        report_bytes = sum(getattr(report, name).nbytes for name in REPORT_ARRAYS)
        assert peak <= 1.3 * report_bytes

    def test_block_temporaries_at_20k_paths(self, default_config):
        """At 20,000 paths x 64 steps path_blocks gives 20 blocks of at most
        1,024 rows.  One (65, 1,024) block array is 0.53 MB, one whole
        (20,000, 65) array 10.4 MB.  impacted_quote_path returns two whole
        arrays, so a single whole-array temporary would add 0.5 to the ratio
        of its peak to them, and the bound 1.5 leaves room for about 19 block
        arrays.  A stock-only ledger returns six whole arrays (its swap
        columns are zero views), so one whole-array temporary would add
        1/6 = 0.17, and the bound 1.25 leaves room for about 29 block arrays.
        """
        bundle = simulate_paths(default_config.model_params(), default_config.time_grid(),
                                20_000, seed=21)
        assert len(path_blocks(bundle.n_paths)) == 20
        x = np.random.default_rng(5).normal(0, 2, size=(bundle.n_paths, bundle.n_nodes))
        quotes, peak = traced_peak(lambda: impacted_quote_path(bundle, x, 0.5))
        assert peak <= 1.5 * (quotes.s0_pre.nbytes + quotes.s0_post.nbytes)
        report, peak = traced_peak(lambda: cash_decomposed(Strategy(x=x), bundle))
        kept = ("y_direct", "y_decomposed", "gains", "impact_term", "quad_cost", "liq_value")
        assert peak <= 1.25 * sum(getattr(report, name).nbytes for name in kept)

    def test_harness_holds_one_report_at_a_time(self, default_config, monkeypatch):
        cfg = override(default_config, grid__n_steps=64)
        grid = cfg.time_grid()
        family = round_trip_family(grid, 5, base_size=2.0, seed=3)
        decomposed = ledger.cash_decomposed
        built = []

        def observed(*args, **kwargs):
            alive = [i for i, ref in enumerate(built) if ref() is not None]
            assert not alive, f"reports {alive} still alive when the next one is built"
            report = decomposed(*args, **kwargs)
            built.append(weakref.ref(report))
            return report

        monkeypatch.setattr(ledger, "cash_decomposed", observed)
        arbitrage_harness(family, cfg.model_params(), grid, 2000, seed=4)
        assert len(built) == len(family)

    def test_harness_keeps_no_whole_report(self, default_config, monkeypatch):
        """At 20,000 paths x 64 steps one whole (n_paths, n_nodes) array is
        10.4 MB.  With the bundle built outside the trace, the harness holds
        at once one strategy's positions (a whole array for the two reactive
        rules), the block temporaries of one ledger (at most about 20
        (65, 1,024) block arrays of 0.53 MB, one whole array) and the
        (n_paths, 1) terminal columns, so its peak stays under 2.5 whole
        arrays (it is about 1.8).  A full stock-only report is six whole
        arrays, so a harness that built one would peak above 7.
        """
        bundle = simulate_paths(default_config.model_params(), default_config.time_grid(),
                                20_000, seed=4)
        grid = default_config.time_grid()
        family = round_trip_family(grid, 20, base_size=3.0, seed=7)
        monkeypatch.setattr(ledger, "simulate_paths", lambda *args: bundle)
        _, peak = traced_peak(lambda: arbitrage_harness(
            family, default_config.model_params(), grid, bundle.n_paths, seed=4))
        assert peak < 2.5 * bundle.s.nbytes
