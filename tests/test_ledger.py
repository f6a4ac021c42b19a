import numpy as np
import numpy.testing as npt
import pytest

from liqlab import (
    Strategy,
    SwapLiquidity,
    arbitrage_harness,
    cash_decomposed,
    check_admissible,
    impacted_quote_path,
    liquidation_value,
    round_trip_family,
    simulate_paths,
    swap_price_paths,
)
from liqlab import ledger
from liqlab.errors import InvalidParams, NotSubmartingaleParams
from liqlab.ledger import export_ledger_csv
from liqlab.order_book import path_blocks

from conftest import override


def frozen_market(default_config, lam, n_steps=16):
    """Constant S and M: factor noise and drift off, stock noise off via rho."""
    cfg = override(default_config, model__gamma=0.0, model__eta=0.0,
                   model__alpha=0.0, model__a=0.0,
                   model__phi_kind="constant", model__phi_level=0.0,
                   model__theta_kind="constant", model__theta_level=0.0,
                   model__lambda_impact=lam, grid__n_steps=n_steps)
    return cfg


def make_frozen_bundle(default_config, lam):
    cfg = frozen_market(default_config, lam)
    params = cfg.model_params()
    bundle = simulate_paths(params, cfg.time_grid(), 4, seed=1)
    # stock still diffuses through W1; freeze it by hand for the hand-ledger cases
    bundle.s[:, :] = params.s0
    return bundle, params


class TestCashDirect:
    def test_no_trades_cash_constant(self, default_config):
        cfg = override(default_config, grid__n_steps=12)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 8, seed=2)
        strat = Strategy(x=np.zeros(bundle.n_nodes), y0=7.5)
        y = cash_decomposed(strat, bundle, lam=cfg.model_params().lambda_impact).y_direct
        npt.assert_array_equal(y, 7.5)

    def test_round_trip_full_impact_hand_ledger(self, default_config):
        # buy 1 at t1 (pay S + M), quote rises to S + 2M, sell 1 at t2
        # (receive S + 2M - M): full-impact gain offsets the spread cost
        bundle, params = make_frozen_bundle(default_config, lam=1.0)
        x = np.zeros(bundle.n_nodes)
        x[1:3] = 1.0
        strat = Strategy(x=x, y0=100.0)
        y = cash_decomposed(strat, bundle, lam=1.0).y_direct
        npt.assert_allclose(y[:, -1], 100.0, rtol=1e-14)

    def test_round_trip_no_impact_hand_ledger(self, default_config):
        # lambda = 0: the round trip pays the full quadratic cost 2 M
        bundle, params = make_frozen_bundle(default_config, lam=0.0)
        m0 = params.epsilon * params.u0
        x = np.zeros(bundle.n_nodes)
        x[1:3] = 1.0
        strat = Strategy(x=x, y0=100.0)
        y = cash_decomposed(strat, bundle, lam=0.0).y_direct
        npt.assert_allclose(y[:, -1], 100.0 - 2 * m0, rtol=1e-12)


class TestCashDecomposed:
    def test_constant_position_zero_depth(self, default_config):
        # epsilon = 0 kills every liquidity term: terminal cash change is the
        # plain trading gain c * (S_T - S_0) net of the liquidation value
        cfg = override(default_config, model__epsilon=0.0, grid__n_steps=10)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 16, seed=3)
        c = 2.5
        x = np.full(bundle.n_nodes, c)
        x_closed = x.copy()
        x_closed[-1] = 0.0
        report = cash_decomposed(Strategy(x=x_closed), bundle)
        gains = c * (bundle.s[:, -1] - bundle.s[:, 0])
        npt.assert_allclose(report.y_decomposed[:, -1], gains, rtol=1e-9, atol=1e-9)
        npt.assert_array_equal(report.impact_term, 0.0)
        npt.assert_array_equal(report.quad_cost, 0.0)

    def test_zero_lambda_drops_impact_integral(self, default_config):
        cfg = override(default_config, model__lambda_impact=0.0, grid__n_steps=12)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 8, seed=5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=bundle.n_nodes)
        report = cash_decomposed(Strategy(x=x), bundle)
        npt.assert_array_equal(report.impact_term, 0.0)
        assert (report.quad_cost <= 0).all()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_matches_direct_on_random_strategies(self, default_config, lam):
        cfg = override(default_config, model__lambda_impact=lam, grid__n_steps=32)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 25, seed=7)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(0, 3, size=(bundle.n_paths, bundle.n_nodes))
            report = cash_decomposed(Strategy(x=x), bundle, lam=lam)
            assert report.discrepancy < 1e-9

    def test_matches_direct_with_swap_legs(self, default_config):
        cfg = override(default_config, grid__n_steps=24)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 20, seed=9)
        specs = cfg.swap_specs()
        prices = (swap_price_paths(bundle, specs[0]), swap_price_paths(bundle, specs[1]))
        swaps = cfg.swap_liquidity()
        rng = np.random.default_rng(13)
        x = rng.normal(0, 2, size=(bundle.n_paths, bundle.n_nodes))
        c1 = rng.normal(0, 1, size=bundle.n_nodes)
        c2 = rng.normal(0, 1, size=bundle.n_nodes)
        report = cash_decomposed(Strategy(x=x, chi1=c1, chi2=c2), bundle,
                                 swaps=swaps, swap_prices=prices)
        assert report.discrepancy < 1e-9

    def test_liquidity_benefit_sign_on_falling_depth(self, default_config):
        # pathwise decreasing depth makes -lambda int X^2 dM nonnegative
        cfg = override(default_config, model__gamma=-0.5, model__eta=0.0,
                       model__phi_kind="constant", model__phi_level=0.0,
                       grid__n_steps=12)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 6, seed=1)
        assert (np.diff(bundle.m, axis=1) <= 0).all()
        rng = np.random.default_rng(3)
        x = rng.normal(0, 2, size=bundle.n_nodes)
        report = cash_decomposed(Strategy(x=x), bundle)
        assert (report.impact_term >= 0).all()

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_nan_position_gives_nan_discrepancy(self, default_config, where):
        # the ledger takes its maxima block by block; one NaN entry in any
        # block must still make the discrepancy NaN, as one max over the
        # whole array does (Python's max(0.0, nan) would return 0.0)
        cfg = override(default_config, grid__n_steps=16)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 3000, seed=8)
        blocks = path_blocks(bundle.n_paths)
        assert len(blocks) >= 3
        block = {"first": blocks[0], "middle": blocks[len(blocks) // 2],
                 "last": blocks[-1]}[where]
        x = np.random.default_rng(4).normal(0, 2, size=(bundle.n_paths, bundle.n_nodes))
        x[block.stop - 1, bundle.n_nodes // 2] = np.nan
        assert np.isnan(cash_decomposed(Strategy(x=x), bundle).discrepancy)

    def test_quadratic_cost_vanishes_under_refinement(self, default_config):
        # Lipschitz-in-time profile: sum M dX^2 is O(dt)
        costs = []
        for n_steps in (16, 32, 64):
            cfg = override(default_config, grid__n_steps=n_steps)
            bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 4, seed=2)
            t = cfg.time_grid().times()
            x = np.sin(2 * np.pi * t)  # fixed continuous profile
            report = cash_decomposed(Strategy(x=x), bundle)
            costs.append(float(np.abs(report.quad_cost[:, -1]).mean()))
        assert costs[0] > costs[1] > costs[2]
        assert costs[2] < costs[0] / 2.5  # first order in dt


class TestLiquidationValue:
    def test_zero_position(self):
        assert liquidation_value(0.0, 101.0, 0.05, 0.7) == 0.0

    def test_direct_evaluation(self):
        assert liquidation_value(10.0, 100.0, 0.05, 1.0) == pytest.approx(995.0)

    def test_block_close_pays_extra_quadratic_cost(self, default_config):
        # jumping the whole position at once loses (1-lambda) M X^2 relative
        # to the continuous finite-variation unwind
        bundle, params = make_frozen_bundle(default_config, lam=0.5)
        m0 = params.epsilon * params.u0
        x_pos = 10.0
        x = np.zeros(bundle.n_nodes)
        x[1:-1] = x_pos  # close with a single jump at the final node
        report = cash_decomposed(Strategy(x=x), bundle)
        quotes = impacted_quote_path(bundle, x, 0.5)
        unwind = liquidation_value(x_pos, quotes.s0_post[:, -2], m0, 0.5)
        jump_close = report.y_decomposed[:, -1] - report.y_decomposed[:, -2]
        npt.assert_allclose(jump_close, unwind - (1 - 0.5) * m0 * x_pos ** 2,
                            rtol=1e-12)


class TestAdmissibility:
    def test_zero_strategy(self):
        gains = np.zeros((4, 5))
        assert check_admissible(gains, 0.0).all()

    def test_single_dip_fails(self):
        gains = np.zeros((2, 5))
        gains[1, 3] = -2.0
        ok = check_admissible(gains, 1.0)
        npt.assert_array_equal(ok, [True, False])

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidParams):
            check_admissible(np.zeros((1, 2)), -1.0)

    def test_buy_and_hold_bounded_by_initial_price(self, default_config):
        cfg = override(default_config, grid__n_steps=20)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 50, seed=4)
        x = np.ones(bundle.n_nodes)
        report = cash_decomposed(Strategy(x=x), bundle, lam=0.0)
        # epsilon > 0 but lambda = 0: gain = sum dS + quad cost at entry only
        gains = report.gain_paths()
        assert check_admissible(gains, params.s0 + 1.0).all()


class TestArbitrageHarness:
    def test_zero_strategy_mean_exactly_zero(self, default_config):
        grid = default_config.time_grid()
        strat = Strategy(x=np.zeros(grid.n_nodes))
        result = arbitrage_harness([strat], default_config.model_params(), grid,
                                   200, seed=3)
        assert result.means[0] == 0.0
        assert not result.violates

    def test_submartingale_flag_enforced(self, default_config):
        cfg = override(default_config, model__gamma=-0.2)
        with pytest.raises(NotSubmartingaleParams):
            arbitrage_harness([], cfg.model_params(), cfg.time_grid(), 10, seed=1)

    def test_one_path_rejected(self, default_config):
        # one path has no standard error: every stderr was nan, violates False
        grid = default_config.time_grid()
        strat = Strategy(x=np.zeros(grid.n_nodes))
        with pytest.raises(InvalidParams, match="at least 2 paths"):
            arbitrage_harness([strat], default_config.model_params(), grid, 1, seed=1)

    def test_empty_family_rejected_before_simulating(self, default_config, monkeypatch):
        # an empty family has no worst z score: reject it before simulating
        def no_simulation(*args):
            raise AssertionError("simulated before checking the family")

        monkeypatch.setattr(ledger, "simulate_paths", no_simulation)
        with pytest.raises(InvalidParams, match="at least one strategy"):
            arbitrage_harness([], default_config.model_params(), default_config.time_grid(),
                              10, seed=1)

    def test_open_strategy_rejected(self, default_config):
        grid = default_config.time_grid()
        x = np.ones(grid.n_nodes)
        with pytest.raises(InvalidParams):
            arbitrage_harness([Strategy(x=x)], default_config.model_params(), grid,
                              10, seed=1)

    def test_martingale_gains_without_liquidity(self, default_config):
        # lambda = 0, epsilon = 0: closed strategies have martingale gains
        cfg = override(default_config, model__epsilon=0.0, model__lambda_impact=0.0)
        grid = cfg.time_grid()
        x = np.zeros(grid.n_nodes)
        x[2:-1] = 5.0
        result = arbitrage_harness([Strategy(x=x)], cfg.model_params(), grid,
                                   20_000, seed=6)
        assert abs(result.means[0]) < 3 * result.stderrs[0]

    def test_family_round_trips_no_positive_mean(self, default_config):
        cfg = override(default_config, model__gamma=0.5, model__eta=0.5)
        grid = cfg.time_grid()
        family = round_trip_family(grid, 8, base_size=2.0, seed=10)
        result = arbitrage_harness(family, cfg.model_params(), grid, 4000, seed=2)
        assert not result.violates


def test_swap_liquidity_validation():
    with pytest.raises(InvalidParams):
        SwapLiquidity(m1=0.0, m2=0.1, l1=0.5, l2=0.5)
    with pytest.raises(InvalidParams):
        SwapLiquidity(m1=0.1, m2=0.1, l1=1.5, l2=0.5)


def test_ledger_csv_export(tmp_path, default_config):
    cfg = override(default_config, grid__n_steps=4)
    bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 2, seed=1)
    x = np.array([1.0, 2.0, 2.0, 0.5, 0.0])
    strat = Strategy(x=x)
    report = cash_decomposed(strat, bundle)
    out = tmp_path / "ledger.csv"
    export_ledger_csv(bundle, strat, report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("path,step,t,X,chi1,chi2,Y,")
    assert len(lines) == 1 + 2 * 5


@pytest.mark.parametrize("lam", [1.5, -0.1, float("nan"), float("inf")])
def test_impact_fraction_outside_unit_interval_rejected(default_config, lam):
    # lam = 1.5 used to give a positive "quadratic cost", lam = nan NaN everywhere
    cfg = override(default_config, grid__n_steps=8)
    bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 4, seed=1)
    x = np.linspace(0.0, 1.0, bundle.n_nodes)
    with pytest.raises(InvalidParams):
        cash_decomposed(Strategy(x=x), bundle, lam=lam)
    with pytest.raises(InvalidParams):
        impacted_quote_path(bundle, x, lam)
