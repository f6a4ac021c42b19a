import numpy as np
import numpy.testing as npt
import pytest

from liqlab import (
    PsiMatrix,
    SwapSpec,
    TimeGrid,
    exposure_from_hedge,
    growth_factor,
    remaining_growth,
    invert_hedge,
    psi_matrix,
    simulate_paths,
    swap_price,
    swap_price_paths,
    tilde_u,
    tilde_v,
)
from liqlab.errors import DegenerateState, MaturityPassed, SingularSystem
from liqlab.market import zeta_coeff

from conftest import override


class TestGrowthFactor:
    def test_zero_rate_limit(self):
        assert growth_factor(0.0, 1.5, 0.5) == pytest.approx(1.0)

    def test_continuity_near_zero(self):
        lim = growth_factor(0.0, 2.0, 0.25)
        near = growth_factor(1e-11, 2.0, 0.25)
        assert abs(near - lim) < 1e-9

    def test_generic_rate(self):
        c, t_mat, t = 0.5, 1.25, 0.3
        assert growth_factor(c, t_mat, t) == pytest.approx(
            (np.exp(c * t_mat) - np.exp(c * t)) / c)


class TestSwapPrice:
    def test_frozen_variance_limit(self, default_config):
        cfg = override(default_config, model__gamma=0.0, model__eta=0.0,
                       model__alpha=0.0, model__a=0.0)
        params = cfg.model_params()
        spec = SwapSpec(maturity=1.0, strike=0.05)
        got = swap_price(0.0, params.u0, params.v0, 0.0, params, spec)
        assert got == pytest.approx((params.u0 + params.v0) * 1.0 - 0.05)

    def test_exponential_factor_oracle(self, default_config):
        # gamma=1, eta=0, alpha=0, a=0: value integrates E U_t = U0 e^t by
        # quadrature and adds the flat V contribution
        cfg = override(default_config, model__gamma=1.0, model__eta=0.0,
                       model__alpha=0.0, model__a=0.0, model__u0=0.02,
                       model__v0=0.02)
        params = cfg.model_params()
        spec = SwapSpec(maturity=1.0, strike=0.05)
        got = swap_price(0.0, params.u0, params.v0, 0.0, params, spec)
        ts = np.linspace(0.0, 1.0, 100_001)
        quad = np.trapezoid(0.02 * np.exp(ts), ts) + 0.02 * 1.0 - 0.05
        assert got == pytest.approx(quad, rel=1e-8)
        assert got == pytest.approx(0.02 * (np.e - 1) + 0.02 - 0.05)

    def test_affine_in_tilde_factors(self, default_config):
        params = default_config.model_params()
        spec = SwapSpec(maturity=1.5, strike=0.3)
        t = 0.4
        u = np.array([0.02, 0.05, 0.11])
        base = swap_price(t, u, 0.03, 0.2, params, spec)
        slope = growth_factor(params.gamma, 1.5, t)
        dtu = np.diff(tilde_u(t, u, params))
        npt.assert_allclose(np.diff(base), slope * dtu, rtol=1e-12)

    def test_maturity_passed(self, default_params):
        with pytest.raises(MaturityPassed):
            swap_price(2.0, 0.02, 0.02, 0.1, default_params, SwapSpec(1.5, 0.1))

    def test_monte_carlo_consistency(self, mild_config):
        # closed form at t=0 vs sample mean of terminal RV - strike
        cfg = override(mild_config, grid__horizon=1.25, grid__t1=1.5, grid__t2=1.75,
                       grid__n_steps=160)
        params = cfg.model_params()
        grid = cfg.time_grid()
        spec = SwapSpec(maturity=1.25, strike=0.05)
        bundle = simulate_paths(params, grid, 60_000, seed=31)
        payout = bundle.rv[:, -1] - spec.strike
        stderr = payout.std(ddof=1) / np.sqrt(payout.shape[0])
        closed = swap_price(0.0, params.u0, params.v0, 0.0, params, spec)
        assert abs(payout.mean() - closed) < 3 * stderr

    def test_martingale_property_of_tilde_factors(self, mild_config):
        params = mild_config.model_params()
        grid = TimeGrid(1.0, 32)
        bundle = simulate_paths(params, grid, 30_000, seed=17)
        times = grid.times()[None, :]
        tu = tilde_u(times, bundle.u, params)
        tv = tilde_v(times, bundle.v, params)
        for proc in (tu, tv):
            terminal = proc[:, -1]
            stderr = terminal.std(ddof=1) / np.sqrt(terminal.shape[0])
            assert abs(terminal.mean() - proc[0, 0]) < 3 * stderr

    def test_price_process_is_flat_in_expectation(self, mild_config):
        # G_t along paths is a martingale: mean at t matches the t=0 value
        params = mild_config.model_params()
        cfg = override(mild_config, grid__n_steps=32)
        bundle = simulate_paths(params, cfg.time_grid(), 30_000, seed=23)
        spec = cfg.swap_specs()[0]
        g = swap_price_paths(bundle, spec)
        g0 = g[0, 0]
        mid = g[:, 16]
        stderr = mid.std(ddof=1) / np.sqrt(mid.shape[0])
        assert abs(mid.mean() - g0) < 3 * stderr


class TestPsiMatrix:
    def test_swap_rows_do_not_load_first_driver(self, default_params, default_grid):
        psi = psi_matrix(0.3, 0.04, 0.05, 90.0, default_params,
                         default_grid.t1, default_grid.t2)
        npt.assert_array_equal(psi.entries[..., 0, 0], 0.0)
        npt.assert_array_equal(psi.entries[..., 1, 0], 0.0)

    def test_equal_rates_rejected_then_singular(self, default_config):
        cfg = override(default_config, model__alpha=0.5)  # alpha == gamma
        params = cfg.model_params()
        grid = cfg.time_grid()
        psi = psi_matrix(0.2, 0.04, 0.05, 90.0, params, grid.t1, grid.t2)
        # proportional maturity columns: determinant exactly collapses
        scale = np.abs(psi.entries).max() ** 3
        assert abs(psi.det()) < 1e-12 * scale

    def test_determinant_product_formula(self, default_config, default_grid):
        rng = np.random.default_rng(3)
        params = default_config.model_params()
        d = params.decomp
        for _ in range(20):
            t = rng.uniform(0, 1)
            u = rng.uniform(0.01, 0.3)
            v = rng.uniform(0.01, 0.3)
            s = rng.uniform(20, 200)
            psi = psi_matrix(t, u, v, s, params, default_grid.t1, default_grid.t2)
            a_g1 = remaining_growth(params.gamma, default_grid.t1, t)
            a_g2 = remaining_growth(params.gamma, default_grid.t2, t)
            a_a1 = remaining_growth(params.alpha, default_grid.t1, t)
            a_a2 = remaining_growth(params.alpha, default_grid.t2, t)
            block = a_g1 * a_a2 - a_g2 * a_a1
            expected = (block * d.phi2 * d.theta3 * params.phi(u) * params.theta(v)
                        * d.sigma1 * np.sqrt(u + v) * s)
            assert abs(psi.det()) == pytest.approx(abs(expected), rel=1e-9)
            assert psi.det() != 0.0

    def test_degenerate_flag(self, default_config, default_grid):
        cfg = override(default_config, model__phi_kind="constant",
                       model__phi_level=0.0)
        psi = psi_matrix(0.1, 0.02, 0.03, 100.0, cfg.model_params(),
                         default_grid.t1, default_grid.t2)
        assert psi.degenerate.all()

    def test_batched_states(self, default_params, default_grid):
        t = np.linspace(0, 1, 5)[None, :]
        u = np.full((3, 5), 0.03)
        v = np.full((3, 5), 0.04)
        s = np.full((3, 5), 80.0)
        psi = psi_matrix(t, u, v, s, default_params, default_grid.t1, default_grid.t2)
        assert psi.entries.shape == (3, 5, 3, 3)
        assert not psi.degenerate.any()


class TestInvertHedge:
    def test_zero_exposure_zero_hedge(self, default_params, default_grid):
        psi = psi_matrix(0.2, 0.03, 0.04, 110.0, default_params,
                         default_grid.t1, default_grid.t2)
        sigma_s = np.sqrt(0.07) * 110.0
        x, c1, c2 = invert_hedge(np.zeros(3), psi, sigma_s, 0.0, default_params)
        assert x == c1 == c2 == 0.0

    def test_round_trip_many_states(self, default_params, default_grid):
        rng = np.random.default_rng(8)
        n = 500
        t = rng.uniform(0, 1, n)
        u = rng.uniform(0.01, 0.2, n)
        v = rng.uniform(0.01, 0.2, n)
        s = rng.uniform(30, 300, n)
        psi = psi_matrix(t, u, v, s, default_params, default_grid.t1, default_grid.t2)
        sigma_s = np.sqrt(u + v) * s
        zeta_u = zeta_coeff(u, default_params)
        x = rng.normal(0, 5, n)
        c1 = rng.normal(0, 5, n)
        c2 = rng.normal(0, 5, n)
        z = exposure_from_hedge(x, c1, c2, psi, sigma_s, zeta_u, default_params)
        xr, c1r, c2r = invert_hedge(z, psi, sigma_s, zeta_u, default_params)
        npt.assert_allclose(xr, x, atol=1e-10)
        npt.assert_allclose(c1r, c1, atol=1e-10)
        npt.assert_allclose(c2r, c2, atol=1e-10)

    def test_stacked_exposures_equal_column_calls(self, default_params, default_grid):
        # a leading batch axis of exposures, shape (m, n, 3), against one
        # loading matrix gives each column what its own call gives
        rng = np.random.default_rng(9)
        n = 400
        u = rng.uniform(0.01, 0.2, n)
        s = rng.uniform(30, 300, n)
        psi = psi_matrix(0.3, u, rng.uniform(0.01, 0.2, n), s, default_params,
                         default_grid.t1, default_grid.t2)
        sigma_s = np.sqrt(u + 0.05) * s
        zeta_u = zeta_coeff(u, default_params)
        z = rng.normal(0, 50, (4, n, 3))
        stacked = invert_hedge(z, psi, sigma_s, zeta_u, default_params)
        for j in range(z.shape[0]):
            column = invert_hedge(z[j], psi, sigma_s, zeta_u, default_params)
            for got, want in zip(stacked, column):
                npt.assert_array_equal(got[j], want)

    def test_zero_illiquidity_reduces_to_linear_map(self, default_config, default_grid):
        # epsilon = 0 makes the quadratic term vanish: Z is linear in the
        # positions and given by the plain loading map
        cfg = override(default_config, model__epsilon=0.0)
        params = cfg.model_params()
        psi = psi_matrix(0.5, 0.05, 0.06, 70.0, params, default_grid.t1, default_grid.t2)
        sigma_s = np.sqrt(0.11) * 70.0
        zeta_u = zeta_coeff(0.05, params)
        assert zeta_u == 0.0
        x, c1, c2 = 2.0, -1.0, 3.0
        z = exposure_from_hedge(x, c1, c2, psi, sigma_s, zeta_u, params)
        linear = (x * psi.entries[2, :] + c1 * psi.entries[0, :]
                  + c2 * psi.entries[1, :])
        npt.assert_allclose(z, linear, rtol=1e-12)

    def test_vanishing_price_scale_raises(self, default_params, default_grid):
        psi = psi_matrix(0.1, 0.02, 0.05, 120.0, default_params,
                         default_grid.t1, default_grid.t2)
        with pytest.raises(DegenerateState):
            invert_hedge(np.ones(3), psi, 0.0, 0.0, default_params)

    def test_degenerate_psi_raises(self, default_config, default_grid):
        cfg = override(default_config, model__theta_kind="constant",
                       model__theta_level=0.0)
        params = cfg.model_params()
        psi = psi_matrix(0.1, 0.02, 0.05, 120.0, params,
                         default_grid.t1, default_grid.t2)
        with pytest.raises(SingularSystem):
            invert_hedge(np.ones(3), psi, 40.0, 0.0, params)


class TestHedgeChecks:
    """invert_hedge's invertibility checks raise in their order, with their messages."""

    _STOCK = "sigma1 * Sigma * S too small to recover the stock position"
    MESSAGES = {"zero price scale": _STOCK, "both": _STOCK,
                "degenerate psi": "loading matrix degenerate at some state",
                "singular block": "swap loading block numerically singular",
                "equal rates": "swap loading block numerically singular"}

    @staticmethod
    def _case(default_config, default_grid, kind):
        cfg = default_config
        if kind in ("degenerate psi", "both"):
            cfg = override(cfg, model__theta_kind="constant", model__theta_level=0.0)
        if kind == "equal rates":
            cfg = override(cfg, model__alpha=cfg.get("model", "gamma"))
        params = cfg.model_params()
        psi = psi_matrix(0.1, 0.02, 0.05, 120.0, params, default_grid.t1, default_grid.t2)
        if kind == "singular block":   # second swap row zero: the 2x2 block has det 0
            entries = psi.entries.copy()
            entries[1, :] = 0.0
            psi = PsiMatrix(entries=entries, degenerate=psi.degenerate)
        sigma_s = 0.0 if kind in ("zero price scale", "both") else 40.0
        return psi, sigma_s, params

    @pytest.mark.parametrize("kind, error", [
        ("zero price scale", DegenerateState),
        ("degenerate psi", SingularSystem),
        ("singular block", SingularSystem),
        ("both", DegenerateState),
        ("equal rates", SingularSystem),
    ])
    def test_checks_raise_as_invert_hedge(self, default_config, default_grid, kind, error):
        psi, sigma_s, params = self._case(default_config, default_grid, kind)
        with pytest.raises(error) as raised:
            invert_hedge(np.ones(3), psi, sigma_s, 0.0, params)
        assert str(raised.value) == self.MESSAGES[kind]


class TestMartingaleRepresentation:
    def test_swap_increments_match_loadings(self, mild_config):
        # dG ~ sum_j psi_{i,j} dB_j: regression slope of realized increments
        # on predicted increments approaches one at first order in dt
        errors = []
        for n_steps in (64, 256):
            cfg = override(mild_config, grid__n_steps=n_steps)
            params = cfg.model_params()
            grid = cfg.time_grid()
            bundle = simulate_paths(params, grid, 4000, seed=41)
            g = swap_price_paths(bundle, cfg.swap_specs()[0])
            times = grid.times()
            k = n_steps // 3
            psi = psi_matrix(times[k], bundle.u[:, k], bundle.v[:, k],
                             bundle.s[:, k], params, grid.t1, grid.t2)
            predicted = np.einsum("pj,pj->p", psi.entries[:, 0, :],
                                  bundle.noise.db[:, k, :])
            actual = g[:, k + 1] - g[:, k]
            slope = np.dot(predicted, actual) / np.dot(predicted, predicted)
            errors.append(abs(slope - 1.0))
        assert errors[0] < 0.05
        assert errors[1] < errors[0]
