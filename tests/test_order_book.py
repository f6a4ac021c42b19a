import numpy as np
import numpy.testing as npt
import pytest

from liqlab import (
    apply_impact,
    book_density,
    execution_cost,
    impacted_quote_path,
    simulate_paths,
    unaffected_price,
)
from liqlab.errors import DegenerateState, GridMismatch

from conftest import override


class TestSupplyCurve:
    def test_buy_side(self):
        assert unaffected_price(100.0, 0.05, 10.0) == pytest.approx(100.5)

    def test_no_spread_at_zero(self):
        assert unaffected_price(100.0, 0.05, 0.0) == 100.0

    def test_sell_side(self):
        assert unaffected_price(100.0, 0.05, -10.0) == pytest.approx(99.5)

    def test_density_inverse_relation(self):
        m = np.array([0.05, 0.2])
        npt.assert_allclose(book_density(m) * 2 * m, 1.0)

    def test_density_needs_depth(self):
        with pytest.raises(DegenerateState):
            book_density(0.0)


class TestExecutionCost:
    def test_buy(self):
        assert execution_cost(100.0, 0.05, 10.0) == pytest.approx(1005.0)

    def test_sell_receives_cash(self):
        assert execution_cost(100.0, 0.05, -10.0) == pytest.approx(-995.0)

    def test_quadrature_oracle(self):
        # integrating the book density between the quote and the post-walk
        # price reproduces the closed-form outlay
        s, m, x = 100.0, 0.05, 7.0
        z = np.linspace(s, s + 2 * m * x, 200_001)
        integral = np.trapezoid(z, z) / (2 * m)
        assert integral == pytest.approx(execution_cost(s, m, x), rel=1e-10)


class TestApplyImpact:
    def test_half_impact_buy(self):
        assert apply_impact(100.0, 0.05, 0.5, 10.0) == pytest.approx(100.5)

    def test_zero_lambda_keeps_quote(self):
        assert apply_impact(100.0, 0.05, 0.0, 10.0) == 100.0

    def test_full_impact_sell(self):
        assert apply_impact(100.0, 0.05, 1.0, -10.0) == pytest.approx(99.0)

    def test_additivity(self):
        one = apply_impact(apply_impact(100.0, 0.05, 0.7, 4.0), 0.05, 0.7, -9.0)
        both = apply_impact(100.0, 0.05, 0.7, -5.0)
        assert one == pytest.approx(both)


@pytest.fixture
def small_bundle(default_config):
    cfg = override(default_config, grid__n_steps=16)
    return simulate_paths(cfg.model_params(), cfg.time_grid(), 64, seed=21)


@pytest.fixture
def flat_bundle(default_config):
    # constant depth: epsilon fixed, factor dynamics frozen
    cfg = override(default_config, model__gamma=0.0, model__eta=0.0,
                   model__alpha=0.0, model__a=0.0,
                   model__phi_kind="constant", model__phi_level=0.0,
                   model__theta_kind="constant", model__theta_level=0.0,
                   grid__n_steps=16)
    return simulate_paths(cfg.model_params(), cfg.time_grid(), 8, seed=3)


class TestImpactedQuotePath:
    def test_no_trades_no_impact(self, small_bundle):
        x = np.zeros(small_bundle.n_nodes)
        quotes = impacted_quote_path(small_bundle, x, lam=1.0)
        npt.assert_array_equal(quotes.s0_pre, small_bundle.s)
        npt.assert_array_equal(quotes.s0_post, small_bundle.s)

    def test_zero_lambda_no_impact(self, small_bundle):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(small_bundle.n_paths, small_bundle.n_nodes))
        quotes = impacted_quote_path(small_bundle, x, lam=0.0)
        npt.assert_array_equal(quotes.s0_post, small_bundle.s)

    def test_single_buy_constant_depth(self, flat_bundle):
        x = np.zeros(flat_bundle.n_nodes)
        x[1:] = 10.0  # buy 10 at node 1, hold
        quotes = impacted_quote_path(flat_bundle, x, lam=1.0)
        m0 = flat_bundle.m[0, 0]
        shift = quotes.s0_post - flat_bundle.s
        npt.assert_allclose(shift[:, 1:], 2 * m0 * 10.0)
        npt.assert_allclose(shift[:, 0], 0.0)
        # pre-trade quote at node 1 is still unimpacted
        npt.assert_allclose(quotes.s0_pre[:, 1], flat_bundle.s[:, 1])

    def test_summation_by_parts_for_closed_strategies(self, small_bundle):
        # X_0pre = X_T = 0 makes the final displacement equal to
        # -2 lambda sum X_{i-1} dM_i exactly
        rng = np.random.default_rng(5)
        lam = 0.7
        x = rng.normal(0, 2, size=(small_bundle.n_paths, small_bundle.n_nodes))
        x[:, -1] = 0.0
        quotes = impacted_quote_path(small_bundle, x, lam=lam)
        dm = np.diff(small_bundle.m, axis=1)
        expected = small_bundle.s[:, -1] - 2 * lam * np.sum(x[:, :-1] * dm, axis=1)
        npt.assert_allclose(quotes.s0_post[:, -1], expected, rtol=1e-12, atol=1e-12)

    def test_grid_mismatch(self, small_bundle):
        with pytest.raises(GridMismatch):
            impacted_quote_path(small_bundle, np.zeros(3), lam=0.5)

    def test_constant_depth_via_zero_epsilon(self, default_config):
        cfg = override(default_config, model__epsilon=0.0, grid__n_steps=8)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 4, seed=2)
        x = np.ones(bundle.n_nodes)
        quotes = impacted_quote_path(bundle, x, lam=1.0)
        # zero depth: trades leave no mark
        npt.assert_array_equal(quotes.s0_post, bundle.s)
