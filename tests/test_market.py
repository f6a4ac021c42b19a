import numpy as np
import numpy.testing as npt
import pytest

from liqlab import (
    GammaMap,
    TimeGrid,
    VolCoeff,
    driver_coefficient,
    mu_coeff,
    simulate_paths,
    zeta_coeff,
)
from liqlab.errors import DegenerateState, InvalidParams, ZeroPaths
from liqlab.market import export_paths_csv, with_epsilon

from conftest import override, traced_peak


def lambda_at(u, v, s, params):
    """driver_coefficient at one state, passed as one-element arrays."""
    return driver_coefficient(np.array([u]), np.array([v]), np.array([s]), params)[0]


def frozen(cfg):
    """Degenerate config: no factor noise, no factor drift."""
    return override(cfg, model__gamma=0.0, model__eta=0.0, model__alpha=0.0,
                    model__a=0.0, model__phi_kind="constant", model__phi_level=0.0,
                    model__theta_kind="constant", model__theta_level=0.0)


class TestSimulatePaths:
    def test_frozen_factors_stay_at_initial_values(self, default_config):
        cfg = frozen(default_config)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 16, seed=1)
        npt.assert_array_equal(bundle.u, params.u0)
        npt.assert_array_equal(bundle.v, params.v0)
        npt.assert_allclose(bundle.sigma ** 2, params.u0 + params.v0)

    def test_zero_epsilon_kills_depth(self, default_config):
        cfg = override(default_config, model__epsilon=0.0)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 8, seed=1)
        npt.assert_array_equal(bundle.m, 0.0)

    def test_exponential_growth_oracle(self, default_config):
        # gamma=1, eta=0, no factor noise: U solves dU = U dt, so U_T = U0 e^T
        cfg = override(frozen(default_config), model__gamma=1.0)
        params = cfg.model_params()
        grid = TimeGrid(horizon=1.0, n_steps=512)
        bundle = simulate_paths(params, grid, 2, seed=1)
        expect = params.u0 * np.e
        err = abs(bundle.u[0, -1] - expect)
        assert err < 2.0 * params.u0 * np.e / 512  # first-order in dt
        finer = simulate_paths(params, TimeGrid(horizon=1.0, n_steps=1024), 2, seed=1)
        assert abs(finer.u[0, -1] - expect) < err

    def test_invariants_on_default_scenario(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 200, seed=4)
        assert (bundle.s > 0).all()
        npt.assert_array_equal(bundle.sigma, np.sqrt(bundle.u + bundle.v))
        params = default_config.model_params()
        npt.assert_array_equal(bundle.m, params.epsilon * bundle.u)
        assert (np.diff(bundle.rv, axis=1) >= 0).all()
        assert bundle.rv[:, 0].max() == 0.0

    def test_price_martingale(self, default_config):
        params = default_config.model_params()
        bundle = simulate_paths(params, default_config.time_grid(), 40_000, seed=8)
        s_t = bundle.s[:, -1]
        stderr = s_t.std(ddof=1) / np.sqrt(s_t.shape[0])
        assert abs(s_t.mean() - params.s0) < 3 * stderr

    def test_depth_submartingale(self, default_config):
        params = default_config.model_params()
        assert params.submartingale_ok
        bundle = simulate_paths(params, default_config.time_grid(), 20_000, seed=9)
        dm = bundle.m[:, -1] - bundle.m[:, 0]
        stderr = dm.std(ddof=1) / np.sqrt(dm.shape[0])
        assert dm.mean() >= -3 * stderr

    def test_weak_convergence_against_closed_form(self, mild_config):
        # E int (U + V) ds has a closed form; left-rectangle errors halve with dt
        params = mild_config.model_params()
        horizon = 1.0
        tu0 = params.u0 + params.eta
        tv0 = params.v0 + params.a
        exact = (tu0 * (np.exp(params.gamma * horizon) - 1) / params.gamma
                 - params.eta * horizon + tv0 * horizon - params.a * horizon)
        errs = []
        for n_steps, seed in ((16, 1), (32, 2), (64, 3)):
            bundle = simulate_paths(params, TimeGrid(horizon, n_steps), 150_000, seed)
            errs.append(abs(bundle.rv[:, -1].mean() - exact))
        assert errs[0] > errs[1] > errs[2]
        ratio = errs[0] / errs[1]
        assert 1.4 < ratio < 2.8

    def test_zero_paths(self, default_config):
        with pytest.raises(ZeroPaths):
            simulate_paths(default_config.model_params(), default_config.time_grid(),
                           0, seed=1)

    def test_invalid_params(self, default_config):
        cfg = override(default_config, model__lambda_impact=1.5)
        with pytest.raises(InvalidParams):
            simulate_paths(cfg.model_params(), cfg.time_grid(), 4, seed=1)

    def test_determinism(self, default_config):
        params = default_config.model_params()
        grid = default_config.time_grid()
        a = simulate_paths(params, grid, 16, seed=42)
        b = simulate_paths(params, grid, 16, seed=42)
        npt.assert_array_equal(a.s, b.s)
        npt.assert_array_equal(a.rv, b.rv)


BUNDLE_ARRAYS = ("s", "u", "v", "sigma", "m", "rv")


class TestForwardLayout:
    """The Euler loop steps time-major; the bundle it returns is path-major."""

    def test_bundle_arrays_c_contiguous(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 50, seed=3)
        for name in BUNDLE_ARRAYS:
            arr = getattr(bundle, name)
            assert arr.flags.c_contiguous, name
            assert arr.shape == (50, default_config.time_grid().n_nodes), name

    def test_degenerate_state_names_step_and_path(self, default_config):
        # a cubic U diffusion first overflows at step 6 on path 7 (seed 1)
        cfg = override(default_config, model__u0=1.0, model__gamma=5.0,
                       model__phi_exponent=3.0, model__phi_scale=80.0)
        with np.errstate(all="ignore"), pytest.raises(
                DegenerateState, match=r"non-finite state at step 6 on path 7:"):
            simulate_paths(cfg.model_params(), TimeGrid(1.0, 8), 50, seed=1)

    def test_peak_is_bundle_plus_noise(self, default_config):
        params = default_config.model_params()
        grid = default_config.time_grid()
        bundle, peak = traced_peak(lambda: simulate_paths(params, grid, 2000, seed=909))
        kept = sum(getattr(bundle, name).nbytes for name in BUNDLE_ARRAYS)
        kept += bundle.noise.db.nbytes
        assert peak <= 1.05 * kept


class TestCoefficients:
    def test_mu_identity_map(self, default_config):
        cfg = override(default_config, model__epsilon=0.01, model__gamma=2.0,
                       model__eta=0.5)
        assert mu_coeff(1.0, cfg.model_params()) == pytest.approx(0.03)

    def test_mu_square_map_ito_term(self, default_config):
        cfg = override(default_config, model__gamma_map="square", model__epsilon=1.0,
                       model__gamma=0.0, model__phi_kind="power",
                       model__phi_exponent=0.5, model__phi_scale=1.0)
        # drift term vanishes; second-derivative term: 0.5 * 2 * phi(1)^2 = 1
        assert mu_coeff(1.0, cfg.model_params()) == pytest.approx(1.0)

    def test_mu_monte_carlo_drift_oracle(self, default_config):
        # square map makes the correction term active; one Euler step from a
        # fixed state has mean depth change mu * dt + O(dt^2)
        cfg = override(default_config, model__gamma_map="square", model__u0=0.04,
                       model__epsilon=0.01)
        params = cfg.model_params()
        # dt small enough that the O(dt) remainder sits far inside the noise
        grid = TimeGrid(horizon=0.001, n_steps=1)
        bundle = simulate_paths(params, grid, 200_000, seed=12)
        dm = (bundle.m[:, 1] - bundle.m[:, 0]) / grid.dt
        stderr = dm.std(ddof=1) / np.sqrt(dm.shape[0])
        assert abs(dm.mean() - mu_coeff(params.u0, params)) < 3 * stderr

    def test_zeta_values(self, default_config):
        base = default_config.model_params()
        assert zeta_coeff(1.0, with_epsilon(base, 0.0)) == 0.0
        cfg = override(default_config, model__epsilon=0.01, model__phi_kind="power",
                       model__phi_exponent=0.5)
        assert zeta_coeff(0.04, cfg.model_params()) == pytest.approx(0.0004)
        cfg2 = override(default_config, model__gamma_map="square", model__epsilon=1.0,
                        model__phi_kind="power", model__phi_exponent=1.0)
        assert zeta_coeff(2.0, cfg2.model_params()) == pytest.approx(16.0)

    def test_lambda_values(self, default_config):
        params = with_epsilon(default_config.model_params(), 0.0)
        assert lambda_at(0.02, 0.02, 100.0, params) == 0.0
        # constants tuned so mu = 0.002 at u = 0.02; with sigma1 = 1, Sigma^2 = 0.04
        # and S = 100 the coefficient is 0.002 / 400 = 5e-6
        cfg = override(default_config, model__rho12=0.0, model__rho13=0.0,
                       model__rho23=0.0, model__epsilon=0.01, model__gamma=0.5,
                       model__eta=0.38)
        params2 = cfg.model_params()
        assert mu_coeff(0.02, params2) == pytest.approx(0.002)
        assert lambda_at(0.02, 0.02, 100.0, params2) == pytest.approx(5e-6)

    def test_lambda_scaling_in_price(self, default_params):
        one = lambda_at(0.02, 0.02, 100.0, default_params)
        two = lambda_at(0.02, 0.02, 200.0, default_params)
        assert two == pytest.approx(one / 4)

    def test_lambda_degenerate_state(self, default_params):
        # the solver's guard: a degenerate sigma1^2 Sigma^2 S^2 gives zero
        assert lambda_at(0.0, 0.0, 100.0, default_params) == 0.0
        assert lambda_at(0.02, 0.02, 0.0, default_params) == 0.0


class TestVolCoeff:
    def test_power_exponents(self):
        assert VolCoeff.power(0.5)(0.04) == pytest.approx(0.2)
        assert VolCoeff.power(0.0)(0.5) == 1.0
        assert VolCoeff.power(1.0).condition_ok          # Lipschitz
        assert VolCoeff.power(0.3).condition_ok          # exponent inside [0, 1/2]
        assert not VolCoeff.power(0.75).condition_ok

    def test_params_condition_flag(self, default_config):
        from conftest import override, traced_peak

        assert default_config.model_params().swaps_condition_ok
        loose = override(default_config, model__phi_exponent=0.75)
        assert not loose.model_params().swaps_condition_ok

    def test_constant_is_lipschitz(self):
        c = VolCoeff.constant(0.0)
        assert c.condition_ok
        npt.assert_array_equal(c(np.array([0.0, 1.0])), 0.0)

    def test_gamma_maps(self):
        ident = GammaMap.identity()
        sq = GammaMap.square()
        assert ident.fn(3.0) == 3.0 and ident.d1(3.0) == 1.0 and ident.d2(3.0) == 0.0
        assert sq.fn(3.0) == 9.0 and sq.d1(3.0) == 6.0 and sq.d2(3.0) == 2.0


def test_csv_export(tmp_path, default_config):
    cfg = override(default_config, run__n_paths=3)
    bundle = simulate_paths(cfg.model_params(), TimeGrid(1.0, 4), 3, seed=1)
    out = tmp_path / "paths.csv"
    export_paths_csv(bundle, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,step,t,S,U,V,Sigma,M,RV"
    assert len(lines) == 1 + 3 * 5
    # 17-significant-digit round trip
    first = lines[1].split(",")
    assert float(first[3]) == bundle.s[0, 0]
    # every row reads back to the bundle's bits, path-major
    cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    columns = cells.reshape(3, 5, 9).transpose(2, 0, 1)
    npt.assert_array_equal(columns[0], np.arange(3)[:, None] + np.zeros(5))
    npt.assert_array_equal(columns[1], np.arange(5) + np.zeros((3, 1)))
    assert columns[2].tobytes() == np.broadcast_to(bundle.grid.times(), (3, 5)).tobytes()
    for name, col in zip(["s", "u", "v", "sigma", "m", "rv"], columns[3:]):
        assert col.tobytes() == getattr(bundle, name).tobytes(), name
