import dataclasses
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from liqlab import (
    call_ramp,
    constant_payoff,
    h_prime_zero,
    hat_solution,
    identity_payoff,
    impact_error,
    replication_cost_curve,
    simulate_paths,
    stopping_index,
)
from liqlab import bsde, replication
from liqlab.bsde import hedge_from_solution, solve_quadratic_bsde, terminal_condition
from liqlab.errors import (
    InvalidParams,
    MissingDerivative,
    SingularSystem,
)
from liqlab.market import with_epsilon
from liqlab.payoffs import Payoff, truncate_payoff

from conftest import override


def lin_bundle(cfg, n_paths, seed):
    return simulate_paths(with_epsilon(cfg.model_params(), 0.0), cfg.time_grid(),
                          n_paths, seed)


class TestHatSolution:
    def test_requires_zero_illiquidity_bundle(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 64, seed=1)
        config = default_config.bsde_config()
        with pytest.raises(InvalidParams):
            hat_solution(bundle, truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc),
                         config)

    def test_constant_payoff_flat_value_zero_delta(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        bundle = lin_bundle(cfg, 600, seed=2)
        config = cfg.bsde_config()
        hat = hat_solution(bundle, truncate_payoff(constant_payoff(4.0), config.n_trunc), config)
        npt.assert_allclose(hat.y, 4.0, rtol=1e-12)
        npt.assert_allclose(hat.x, 0.0, atol=1e-10)

    def test_identity_payoff_near_deterministic_factors(self, default_config):
        # factor noise tiny: the asset replicates itself (delta one, and the
        # swap exposures are indistinguishable from regression noise)
        cfg = override(default_config,
                       model__phi_kind="constant", model__phi_level=1e-6,
                       model__theta_kind="constant", model__theta_level=1e-6,
                       grid__n_steps=16, bsde__n_trunc=10_000.0)
        bundle = lin_bundle(cfg, 20_000, seed=3)
        config = cfg.bsde_config()
        hat = hat_solution(bundle, truncate_payoff(identity_payoff(), config.n_trunc), config)
        assert abs(hat.y0 - bundle.params.s0) < 3 * hat.y0_stderr
        mid = 8
        alive = hat.tau_index > mid
        npt.assert_allclose(np.median(hat.x[alive, mid]), 1.0, atol=0.05)
        # the fitted swap-exposure residual is small against the stock exposure
        d = bundle.params.decomp
        resid = (hat.z[alive, mid, 1]
                 - d.sigma2 * bundle.sigma[alive, mid] * bundle.s[alive, mid]
                 * hat.x[alive, mid])
        assert np.median(np.abs(resid)) < 0.2 * np.median(np.abs(hat.z[alive, mid, 1]))
        # value process tracks the price path
        corr = np.corrcoef(hat.y[alive, mid], bundle.s[alive, mid])[0, 1]
        assert corr > 0.999

    def test_fully_deterministic_factors_make_completion_singular(self, default_config):
        # vanished factor diffusion leaves nothing for the swaps to span
        cfg = override(default_config,
                       model__phi_kind="constant", model__phi_level=0.0,
                       model__theta_kind="constant", model__theta_level=0.0,
                       grid__n_steps=8, bsde__n_trunc=10_000.0)
        bundle = lin_bundle(cfg, 200, seed=4)
        config = cfg.bsde_config()
        with pytest.raises(SingularSystem):
            hat_solution(bundle, truncate_payoff(identity_payoff(), config.n_trunc), config)

    def test_value_matches_plain_monte_carlo(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        bundle = lin_bundle(cfg, 8000, seed=5)
        payoff = call_ramp(100.0, 100.0)
        config = cfg.bsde_config()
        trunc = truncate_payoff(payoff, config.n_trunc)
        hat = hat_solution(bundle, trunc, config)
        # mean preservation on the same bundle
        assert hat.y0 == pytest.approx(trunc(bundle.s[:, -1]).mean(), rel=1e-9)
        # independent-seed oracle
        other = lin_bundle(cfg, 12_000, seed=1005)
        mc = payoff(other.s[:, -1])
        se = np.hypot(hat.y0_stderr, mc.std(ddof=1) / np.sqrt(mc.shape[0]))
        assert abs(hat.y0 - mc.mean()) < 3 * se

    def test_exposures_reproduce_value_increments(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        bundle = lin_bundle(cfg, 20_000, seed=6)
        config = cfg.bsde_config()
        hat = hat_solution(bundle, truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc),
                           config)
        k = 16
        alive = hat.tau_index > k + 1
        dy = hat.y[alive, k + 1] - hat.y[alive, k]
        pred = np.einsum("pj,pj->p", hat.z[alive, k, :],
                         bundle.noise.db[alive, k, :])
        slope = pred @ dy / (pred @ pred)
        assert abs(slope - 1.0) < 0.1

    def test_delta_against_bump_and_revalue(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)

        def y0_at(s0_shift):
            params = dataclasses.replace(with_epsilon(cfg.model_params(), 0.0),
                                         s0=cfg.model_params().s0 + s0_shift)
            bundle = simulate_paths(params, cfg.time_grid(), 50_000, seed=7)
            return hat_solution(bundle, trunc, config)

        hat = y0_at(0.0)
        up, down = y0_at(1.0), y0_at(-1.0)
        fd_delta = (up.y0 - down.y0) / 2.0
        assert hat.x[0, 0] == pytest.approx(fd_delta, abs=0.05)


class TestHPrimeZero:
    def test_zero_when_no_impact(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 2000, seed=8)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        hat = hat_solution(lin_bundle(cfg, 2000, 8), trunc, config)
        value, stderr = h_prime_zero(bundle, hat, trunc, lam=0.0)
        assert value == 0.0 and stderr == 0.0

    def test_zero_when_depth_constant(self, default_config):
        cfg = override(default_config, model__epsilon=0.0, grid__n_steps=32)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 2000, seed=9)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        hat = hat_solution(bundle, trunc, config)
        value, _ = h_prime_zero(bundle, hat, trunc, lam=0.6)
        assert value == 0.0

    def test_missing_derivative(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 2000, seed=10)
        bare = Payoff(fn=lambda y: np.clip(y - 100.0, 0.0, 50.0), label="bare")
        config = cfg.bsde_config()
        trunc = truncate_payoff(bare, config.n_trunc)
        hat = hat_solution(lin_bundle(cfg, 2000, 10), trunc, config)
        with pytest.raises(MissingDerivative):
            h_prime_zero(bundle, hat, trunc, lam=0.5)


class TestReplicationCostCurve:
    def test_zero_lambda_reduces_to_hat(self, default_config):
        cfg = override(default_config, model__lambda_impact=0.0, grid__n_steps=32)
        report = replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                        call_ramp(100.0, 100.0), [50.0, 25.0],
                                        3000, 11, cfg.bsde_config())
        npt.assert_allclose(report.h0s, report.yhat0, rtol=1e-9)
        npt.assert_allclose(report.diff_means, 0.0, atol=1e-9)
        assert report.hprime0_analytic == 0.0

    def test_zero_epsilon_reduces_to_hat(self, default_config):
        cfg = override(default_config, model__epsilon=0.0, grid__n_steps=32)
        report = replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                        call_ramp(100.0, 100.0), [50.0],
                                        3000, 12, cfg.bsde_config())
        npt.assert_allclose(report.h0s, report.yhat0, rtol=1e-9)

    def test_linear_decay_and_impact_order(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        report = replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                        call_ramp(100.0, 100.0),
                                        [100.0, 50.0, 25.0], 20_000, 13,
                                        cfg.bsde_config())
        diffs = np.abs(report.diff_means)
        assert diffs[0] > diffs[1] > diffs[2]
        assert 0.7 < report.h0_slope < 1.3
        # decay is resolved: signal several standard errors above noise
        assert diffs.min() > 3 * report.diff_stderrs.max()
        assert report.impact_slope > 2.0
        assert np.all(np.diff(report.delta_l2[::-1]) >= -2 * 1e-9)
        # derivative estimates agree within combined error
        gap = abs(report.hprime0_fd - report.hprime0_analytic)
        combined = np.hypot(report.hprime0_fd_stderr, report.hprime0_analytic_stderr)
        assert gap < 3 * combined + 1e-12

    def test_zero_units_rejected(self, default_config):
        with pytest.raises(InvalidParams):
            replication_cost_curve(default_config.model_params(),
                                   default_config.time_grid(),
                                   call_ramp(100.0, 100.0), [0.0], 100, 1,
                                   default_config.bsde_config())

    def test_fd_derivative_uses_the_actual_ratio(self, default_config):
        # Richardson step through x = 25 and 100 (ratio 4, not 2)
        cfg = override(default_config, grid__n_steps=32)
        report = replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                        call_ramp(100.0, 100.0), [100.0, 25.0],
                                        1000, 14, cfg.bsde_config())
        d100, d25 = report.diff_means
        npt.assert_allclose(report.hprime0_fd, (4 * d25 / 25 - d100 / 100) / 3, rtol=1e-9)

    def test_fd_derivative_bits_at_ratio_2_4(self, default_config):
        # r = 2.4 makes any reordering of the Richardson step visible in the
        # bits; the pinned values are those of (r * D(x2) / x2 - D(x1) / x1) / (r - 1)
        cfg = override(default_config, grid__n_steps=16)
        report = replication_cost_curve(cfg.model_params(), cfg.time_grid(), cfg.payoff(),
                                        (60.0, 25.0), 400, 909, cfg.bsde_config())
        assert report.hprime0_fd == float.fromhex("-0x1.0397aaaa0ad39p-16")
        assert report.hprime0_fd_stderr == float.fromhex("0x1.f8b2309481503p-19")

    def test_repeated_units_rejected_before_simulating(self, default_config, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated before validating the unit counts")

        monkeypatch.setattr(replication, "simulate_paths", no_simulation)
        with pytest.raises(InvalidParams):
            replication_cost_curve(default_config.model_params(),
                                   default_config.time_grid(),
                                   call_ramp(100.0, 100.0), [50.0, 50.0], 100, 1,
                                   default_config.bsde_config())

    def test_no_units_rejected_before_simulating(self, default_config, monkeypatch):
        # an empty list has no smallest unit count for the Richardson step
        def no_simulation(*args):
            raise AssertionError("simulated before validating the unit counts")

        monkeypatch.setattr(replication, "simulate_paths", no_simulation)
        with pytest.raises(InvalidParams, match="nonempty"):
            replication_cost_curve(default_config.model_params(),
                                   default_config.time_grid(),
                                   call_ramp(100.0, 100.0), [], 100, 1,
                                   default_config.bsde_config())

    def test_equal_rates_rejected(self, default_config):
        cfg = override(default_config, model__alpha=0.5)
        with pytest.raises(InvalidParams):
            replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                   call_ramp(100.0, 100.0), [10.0], 100, 1,
                                   cfg.bsde_config())


def _counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


class TestUnitCountPass:
    """The x-runs form X from Z1 alone; the hat hedge checks every node."""

    def test_one_loading_matrix_per_hat_node(self, default_config, monkeypatch):
        calls = Counter()
        for name in ("psi_matrix", "invert_hedge"):
            monkeypatch.setattr(bsde, name, _counting(calls, name, getattr(bsde, name)))
        cfg = override(default_config, grid__n_steps=32, bsde__l_trunc=5.2)
        replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                               call_ramp(100.0, 100.0), [100.0, 50.0, 25.0],
                               500, 16, cfg.bsde_config())
        tau = stopping_index(simulate_paths(cfg.model_params(), cfg.time_grid(), 500, 16), 5.2)
        assert tau.min() < tau.max(), "some paths should stop"
        nodes = int(tau.max())      # nodes 0, ..., max tau - 1 have alive paths
        assert calls == {"psi_matrix": nodes, "invert_hedge": nodes}

    def test_singular_loading_matrix_raises(self, default_config):
        # on this coarse grid full-truncation Euler puts U at exactly 0 on
        # some alive paths, where Phi(0) = 0 makes the loading matrix degenerate
        cfg = override(default_config, grid__n_steps=8)
        with pytest.raises(SingularSystem, match="node 1"):
            replication_cost_curve(cfg.model_params(), cfg.time_grid(), cfg.payoff(),
                                   [50.0], 400, 5, cfg.bsde_config())


class TestImpactError:
    def test_zero_lambda_zero_gap(self, default_config):
        cfg = override(default_config, model__lambda_impact=0.0, grid__n_steps=32)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 2000, seed=14)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        hat = hat_solution(lin_bundle(cfg, 2000, 14), trunc, config)
        term = terminal_condition(bundle, trunc, 20.0, 0.0, hat.x)
        sol = hedge_from_solution(solve_quadratic_bsde(bundle, term, config), bundle)
        mse, _ = impact_error(bundle, term, sol)
        assert mse == 0.0

    def test_zero_epsilon_zero_gap(self, default_config):
        cfg = override(default_config, model__epsilon=0.0, grid__n_steps=32)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 2000, seed=15)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        hat = hat_solution(bundle, trunc, config)
        term = terminal_condition(bundle, trunc, 20.0, 0.6, hat.x)
        sol = hedge_from_solution(solve_quadratic_bsde(bundle, term, config), bundle)
        mse, _ = impact_error(bundle, term, sol)
        assert mse == 0.0


@pytest.mark.parametrize("gamma_map", ["identity", "square"])
def test_hat_bundle_equals_zero_epsilon_simulation(monkeypatch, default_config, gamma_map):
    # The run derives its frictionless bundle from the main one instead of
    # simulating again; it must be bitwise what epsilon = 0 simulates.
    cfg = override(default_config, grid__n_steps=8, model__gamma_map=gamma_map)
    params, grid = cfg.model_params(), cfg.time_grid()
    seen = []

    def capture(bundle_lin, trunc, config):
        seen.append(bundle_lin)
        raise StopIteration  # the solves are not under test

    monkeypatch.setattr(replication, "hat_solution", capture)
    with pytest.raises(StopIteration):
        replication_cost_curve(params, grid, call_ramp(100.0, 100.0), [50.0], 400, 5,
                               cfg.bsde_config())
    fresh = simulate_paths(with_epsilon(params, 0.0), grid, 400, 5)
    [derived] = seen
    assert derived.params == fresh.params and derived.grid == fresh.grid
    for name in ("s", "u", "v", "sigma", "m", "rv"):
        assert getattr(derived, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert derived.noise.db.tobytes() == fresh.noise.db.tobytes()


def test_report_serialization(tmp_path, default_config):
    cfg = override(default_config, grid__n_steps=32)
    report = replication_cost_curve(cfg.model_params(), cfg.time_grid(),
                                    call_ramp(100.0, 100.0), [50.0, 25.0],
                                    2000, 16, cfg.bsde_config())
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,Y0,H0,stderr,impact_err,impact_stderr"
    assert len(lines) == 3
    import json

    payload = json.loads(json_path.read_text())
    assert set(payload) == {"summary", "rows"}
    assert payload["summary"]["H0_limit"] == report.yhat0
