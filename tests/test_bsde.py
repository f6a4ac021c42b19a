import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from liqlab import bsde
from liqlab import (
    BsdeConfig,
    call_ramp,
    constant_payoff,
    hedge_from_solution,
    identity_payoff,
    simulate_paths,
    solve_and_hedge,
    solve_quadratic_bsde,
    stopping_index,
    swap_price_paths,
    terminal_condition,
    truncate_payoff,
)
from liqlab.errors import (
    InvalidParams,
    MissingHatHedge,
    RegressionRankDeficient,
    SingularSystem,
)

from conftest import override, traced_peak


class TestTruncatePayoff:
    def test_inside_band(self):
        trunc = truncate_payoff(identity_payoff(), 50.0)
        assert trunc(30.0) == 30.0

    def test_above_band(self):
        trunc = truncate_payoff(identity_payoff(), 50.0)
        assert trunc(60.0) == 50.0

    def test_below_band_uses_upper_value(self):
        # literal rule: the same constant h(N) applies on both tails
        trunc = truncate_payoff(identity_payoff(), 50.0)
        assert trunc(-60.0) == 50.0

    def test_bound_and_band_equality(self):
        payoff = call_ramp(100.0, 40.0)
        trunc = truncate_payoff(payoff, 400.0)
        assert trunc.bound == pytest.approx(40.0)
        ys = np.linspace(0.0, 400.0, 101)
        npt.assert_array_equal(trunc(ys), payoff(ys))

    def test_derivative_outside_band_is_zero(self):
        trunc = truncate_payoff(identity_payoff(), 50.0)
        assert trunc.d(60.0) == 0.0
        assert trunc.d(30.0) == 1.0

    def test_level_must_be_positive(self):
        with pytest.raises(InvalidParams):
            truncate_payoff(identity_payoff(), 0.0)


class TestStoppingIndex:
    def test_never_stopped(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 32, seed=1)
        idx = stopping_index(bundle, 100.0)
        npt.assert_array_equal(idx, bundle.n_nodes - 1)

    def test_exact_hit_node(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 4, seed=2)
        bundle.sigma[2, 7] = 120.0  # force a volatility breach at node 7
        idx = stopping_index(bundle, 100.0)
        assert idx[2] == 7
        assert (idx[[0, 1, 3]] == bundle.n_nodes - 1).all()

    def test_stopped_fraction_decreases_in_threshold(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 3000, seed=3)
        last = bundle.n_nodes - 1
        fractions = [(stopping_index(bundle, level) < last).mean()
                     for level in (5.05, 5.2, 5.4)]
        assert fractions[0] >= fractions[1] >= fractions[2]
        assert fractions[0] > 0  # the smallest band actually bites
        doubled = [(stopping_index(bundle, level) < last).mean()
                   for level in (5.05, 10.1, 20.2)]
        assert doubled[0] >= doubled[1] >= doubled[2]

    def test_threshold_must_exceed_one(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 4, seed=2)
        with pytest.raises(InvalidParams):
            stopping_index(bundle, 1.0)

    def test_nan_threshold_rejected(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 4, seed=2)
        with pytest.raises(InvalidParams):
            stopping_index(bundle, float("nan"))


class TestBsdeConfig:
    @pytest.mark.parametrize("field", ["l_trunc", "n_trunc", "picard_tol"])
    def test_nan_rejected(self, field):
        # with a NaN l_trunc no path stops; with a NaN picard_tol every
        # Picard iteration runs
        with pytest.raises(InvalidParams):
            BsdeConfig(**{"l_trunc": 50.0, "n_trunc": 400.0, field: float("nan")})


class TestTerminalCondition:
    def test_zero_lambda_uses_raw_terminal(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 16, seed=4)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        term = terminal_condition(bundle, trunc, x_units=2.0, lam=0.0)
        npt.assert_array_equal(term.s_tilde, bundle.s[:, -1])
        npt.assert_allclose(term.values, 2.0 * trunc(bundle.s[:, -1]))

    def test_constant_depth_uses_raw_terminal(self, default_config):
        cfg = override(default_config, model__epsilon=0.0)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 16, seed=4)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        term = terminal_condition(bundle, trunc, x_units=1.0, lam=0.7)
        npt.assert_array_equal(term.s_tilde, bundle.s[:, -1])

    def test_missing_hat_hedge(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 16, seed=4)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        with pytest.raises(MissingHatHedge):
            terminal_condition(bundle, trunc, x_units=1.0, lam=0.5)

    def test_adjustment_linear_in_units(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 64, seed=5)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        hat = np.full((bundle.n_paths, bundle.n_nodes), 0.5)
        t1 = terminal_condition(bundle, trunc, 1.0, 0.5, hat)
        t2 = terminal_condition(bundle, trunc, 2.0, 0.5, hat)
        shift1 = t1.s_tilde - bundle.s[:, -1]
        shift2 = t2.s_tilde - bundle.s[:, -1]
        # shifts are tiny against the price scale: allow cancellation noise
        npt.assert_allclose(shift2, 2.0 * shift1, rtol=1e-6, atol=1e-10)
        assert np.abs(shift1).max() > 0


@pytest.fixture
def bsde_setup(default_config):
    cfg = override(default_config, grid__n_steps=32)
    params = cfg.model_params()
    bundle = simulate_paths(params, cfg.time_grid(), 4000, seed=11)
    config = cfg.bsde_config()
    trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
    return cfg, params, bundle, config, trunc


def _design_reference(s, u, v, degree: int) -> np.ndarray:
    # the column_stack formula the preallocated `_design` must reproduce bitwise
    cols = [np.ones_like(s)]
    for total in range(1, degree + 1):
        for i in range(total + 1):
            for j in range(total - i + 1):
                k = total - i - j
                cols.append(s ** i * u ** j * v ** k)
    raw = np.column_stack(cols)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    keep = std > 1e-12 * (np.abs(mean) + 1.0)
    out = np.zeros_like(raw)
    out[:, 0] = 1.0
    out[:, 1:] = np.where(keep[1:], (raw[:, 1:] - mean[1:]) / np.where(keep[1:], std[1:], 1.0), 0.0)
    return out


class TestDesign:
    """The preallocated, once-centered design is the column_stack formula, bit for bit."""

    @staticmethod
    def _states(n, seed):
        # path-major (n, 65) arrays like a bundle's, with a price-like, a
        # variance-like and a signed state
        rng = np.random.default_rng(seed)
        s = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal((n, 65)), axis=1))
        u = 0.04 * np.exp(np.cumsum(0.1 * rng.standard_normal((n, 65)), axis=1))
        v = np.cumsum(0.01 * rng.standard_normal((n, 65)), axis=1)
        return s, u, v

    @pytest.mark.parametrize("n", [11, 2000])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("gather", ["strided", "mask", "contiguous"])
    def test_bitwise_reference(self, n, degree, gather):
        states = self._states(n, seed=n + degree)
        mask = np.arange(n) % 3 != 1
        for k in (1, 33, 64):
            if gather == "strided":
                s, u, v = (a[:, k] for a in states)
            elif gather == "mask":
                s, u, v = (a[mask, k] for a in states)
            else:
                s, u, v = (np.ascontiguousarray(a[:, k]) for a in states)
            got = bsde._design(s, u, v, degree)
            assert got.shape == (s.shape[0], bsde._n_features(degree))
            assert got.flags.c_contiguous
            want = _design_reference(s, u, v, degree)
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_constant_states_keep_only_the_intercept(self, degree):
        states = [np.full((50, 65), c) for c in (100.0, 0.04, 0.02)]
        s, u, v = (a[:, 0] for a in states)
        got = bsde._design(s, u, v, degree)
        want = _design_reference(s, u, v, degree)
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        npt.assert_array_equal(got[:, 0], 1.0)
        npt.assert_array_equal(got[:, 1:].view(np.uint64), 0)


class TestSolve:
    def test_constant_terminal_exact(self, bsde_setup):
        _, _, bundle, config, trunc = bsde_setup
        term = terminal_condition(bundle, truncate_payoff(constant_payoff(3.25), 10.0),
                                  x_units=1.0, lam=0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        npt.assert_allclose(sol.y, 3.25, rtol=1e-12)
        npt.assert_allclose(sol.z, 0.0, atol=1e-10)

    def test_zero_lambda_matches_plain_monte_carlo(self, bsde_setup):
        cfg, params, bundle, config, trunc = bsde_setup
        term = terminal_condition(bundle, trunc, x_units=1.0, lam=0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        # mean preservation: the solver value is the sample mean on this bundle
        assert sol.y0 == pytest.approx(term.values.mean(), rel=1e-9)
        # independent-seed oracle
        other = simulate_paths(params, cfg.time_grid(), 8000, seed=303)
        oracle = trunc(other.s[:, -1])
        se = np.hypot(sol.y0_stderr, oracle.std(ddof=1) / np.sqrt(oracle.shape[0]))
        assert abs(sol.y0 - oracle.mean()) < 3 * se

    def test_near_deterministic_coefficients_identity_payoff(self, default_config):
        # factor processes frozen: the value process is the price martingale
        cfg = override(default_config, model__gamma=0.0, model__eta=0.0,
                       model__alpha=0.0, model__a=0.0, model__epsilon=0.0,
                       model__phi_kind="constant", model__phi_level=0.0,
                       model__theta_kind="constant", model__theta_level=0.0,
                       grid__n_steps=16)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 20_000, seed=12)
        config = BsdeConfig(l_trunc=50.0, n_trunc=10_000.0)
        trunc = truncate_payoff(identity_payoff(), config.n_trunc)
        term = terminal_condition(bundle, trunc, x_units=1.0, lam=0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        assert sol.y0 == pytest.approx(term.values.mean(), rel=1e-9)
        assert abs(sol.y0 - params.s0) < 3 * sol.y0_stderr
        # stock position from the first exposure equals one along the paths
        x_implied = sol.z[:, 5, 0] / (params.decomp.sigma1 * bundle.sigma[:, 5]
                                      * bundle.s[:, 5])
        assert abs(np.median(x_implied) - 1.0) < 0.15

    def test_driver_raises_value(self, bsde_setup):
        # same exposures, nonnegative driver: value must not go down
        _, _, bundle, config, trunc = bsde_setup
        hat = np.zeros((bundle.n_paths, bundle.n_nodes))
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol0 = solve_quadratic_bsde(bundle, term, config)
        term_l = terminal_condition(bundle, trunc, 1.0, 0.8, hat)
        sol1 = solve_quadratic_bsde(bundle, term_l, config)
        assert sol1.y0 >= sol0.y0 - 2 * sol0.y0_stderr

    def test_comparison_in_terminal(self, bsde_setup):
        _, _, bundle, config, trunc = bsde_setup
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        bumped = terminal_condition(bundle,
                                    truncate_payoff(call_ramp(90.0, 100.0),
                                                    config.n_trunc), 1.0, 0.0)
        sol_up = solve_quadratic_bsde(bundle, bumped, config)
        assert (bumped.values >= term.values).all()
        assert sol_up.y0 >= sol.y0 - 2 * sol.y0_stderr

    def test_rank_deficiency_detected(self, default_config):
        cfg = override(default_config, grid__n_steps=8)
        bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), 6, seed=3)
        config = cfg.bsde_config()  # degree 2 needs 10 features
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        with pytest.raises(RegressionRankDeficient):
            solve_quadratic_bsde(bundle, term, config)

    def test_degenerate_run_flag(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 50, seed=6)
        config = BsdeConfig(l_trunc=1.01, n_trunc=400.0)  # Sigma_0 below 1/L
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        assert sol.degenerate
        assert sol.y0 == pytest.approx(term.values.mean())
        npt.assert_array_equal(sol.z, 0.0)

    def test_stopped_paths_carry_value_and_zero_exposure(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 3000, seed=7)
        config = BsdeConfig(l_trunc=5.2, n_trunc=400.0)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        stopped = sol.tau_index < bundle.n_nodes - 1
        assert stopped.any()
        for p in np.flatnonzero(stopped)[:10]:
            tau = sol.tau_index[p]
            npt.assert_array_equal(sol.y[p, tau:], sol.y[p, tau])
            npt.assert_array_equal(sol.z[p, tau:, :], 0.0)

    def test_picard_contracts_and_bound_diagnostics(self, default_config):
        cfg = override(default_config, grid__n_steps=32)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 4000, seed=13)
        config = BsdeConfig(l_trunc=50.0, n_trunc=400.0, picard_iters=5,
                            picard_tol=0.0)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        hat = np.full((bundle.n_paths, bundle.n_nodes), 0.5)
        hat[:, -1] = 0.0
        term = terminal_condition(bundle, trunc, 100.0, 0.5, hat)
        sol = solve_quadratic_bsde(bundle, term, config)
        diag = sol.diagnostics
        assert diag.smallness_ok
        # the flag mirrors the recorded extremes: regression tails may
        # overshoot the a-priori bound, which is warning-level information
        assert diag.bound_violated == (diag.max_abs_y > diag.y_bound * (1 + 1e-9))
        assert diag.lambda_bound > 0
        contracted = [d for d in diag.picard_deltas if len(d) >= 3]
        assert contracted, "driver should engage the Picard loop"
        for deltas in contracted:
            assert deltas[-1] < deltas[0] or deltas[-1] < 1e-12


class TestHedge:
    def test_zero_exposures_zero_hedge(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 500, seed=8)
        config = default_config.bsde_config()
        term = terminal_condition(bundle,
                                  truncate_payoff(constant_payoff(1.0), 10.0),
                                  1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        sol = hedge_from_solution(sol, bundle)
        npt.assert_allclose(sol.x, 0.0, atol=1e-10)
        npt.assert_allclose(sol.chi1, 0.0, atol=1e-8)
        npt.assert_allclose(sol.chi2, 0.0, atol=1e-8)

    def test_hedge_zero_after_stopping(self, default_config):
        bundle = simulate_paths(default_config.model_params(),
                                default_config.time_grid(), 2000, seed=9)
        config = BsdeConfig(l_trunc=5.2, n_trunc=400.0)
        trunc = truncate_payoff(call_ramp(100.0, 100.0), 400.0)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        sol = hedge_from_solution(sol, bundle)
        for p in range(50):
            tau = sol.tau_index[p]
            npt.assert_array_equal(sol.x[p, tau:], 0.0)
        assert np.abs(sol.x[:, -1]).max() == 0.0  # liquidated at maturity

    def test_ledger_replay_tracks_terminal(self, default_config):
        # cash start y0 plus hedge gains (stock + swaps - depth impact) should
        # land near the terminal payoff: the replication property in action
        cfg = override(default_config, grid__n_steps=32)
        params = cfg.model_params()
        bundle = simulate_paths(params, cfg.time_grid(), 20_000, seed=15)
        config = cfg.bsde_config()
        trunc = truncate_payoff(call_ramp(100.0, 100.0), config.n_trunc)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)
        sol = solve_quadratic_bsde(bundle, term, config)
        sol = hedge_from_solution(sol, bundle)
        specs = cfg.swap_specs()
        g1 = swap_price_paths(bundle, specs[0])
        g2 = swap_price_paths(bundle, specs[1])
        lam = 0.0
        gains = (
            np.sum(sol.x[:, :-1] * np.diff(bundle.s, axis=1), axis=1)
            + np.sum(sol.chi1[:, :-1] * np.diff(g1, axis=1), axis=1)
            + np.sum(sol.chi2[:, :-1] * np.diff(g2, axis=1), axis=1)
            - lam * np.sum(sol.x[:, :-1] ** 2 * np.diff(bundle.m, axis=1), axis=1)
        )
        replay = sol.y0 + gains
        err = replay - term.values
        # no hedge at all leaves the full payoff spread (ratio 1); the
        # recovered hedge must absorb a large part of it despite the
        # per-node regression noise in the swap positions
        hedged_ratio = err.std() / term.values.std()
        stock_only = sol.y0 + np.sum(sol.x[:, :-1] * np.diff(bundle.s, axis=1), axis=1)
        stock_ratio = (stock_only - term.values).std() / term.values.std()
        assert stock_ratio < 0.5
        assert hedged_ratio < 0.65
        # the closed-form swap price has an O(dt) drift under the discrete
        # scheme, so the replay mean carries a small systematic part
        allowance = 0.05 * abs(sol.y0)
        assert abs(err.mean()) < 3 * err.std(ddof=1) / np.sqrt(err.shape[0]) + allowance


def _unit_count_runs(cfg, n_paths, xs):
    """A bundle and one impact-adjusted terminal per unit count, all at one lambda."""
    params = cfg.model_params()
    bundle = simulate_paths(params, cfg.time_grid(), n_paths, seed=3)
    config = cfg.bsde_config()
    trunc = truncate_payoff(cfg.payoff(), config.n_trunc)
    lam = params.lambda_impact
    hat = np.full((bundle.n_paths, bundle.n_nodes), 0.5)
    hat[:, -1] = 0.0
    terminals = [terminal_condition(bundle, trunc, x, lam, hat) for x in xs]
    return bundle, terminals, config


class TestJointPass:
    """One backward pass for several unit counts equals one solve and one
    hedge inversion per unit count, bitwise."""

    @pytest.mark.parametrize("l_trunc, regime", [
        (50.0, "all alive"), (5.2, "some stopped"), (1.01, "degenerate")])
    def test_equals_separate_solves(self, default_config, l_trunc, regime):
        cfg = override(default_config, grid__n_steps=16, bsde__l_trunc=l_trunc)
        bundle, terminals, config = _unit_count_runs(cfg, 300, (200.0, 50.0, -25.0))
        runs = solve_and_hedge(bundle, terminals, config)
        assert len(runs) == len(terminals)
        for terminal, run in zip(terminals, runs):
            sol = hedge_from_solution(
                solve_quadratic_bsde(bundle, terminal, config), bundle)
            npt.assert_array_equal(run.x, sol.x)
            npt.assert_array_equal(run.xi, sol.xi)
            npt.assert_array_equal(run.tau_index, sol.tau_index)
            assert (run.y0, run.y0_stderr, run.degenerate) == (
                sol.y0, sol.y0_stderr, sol.degenerate)
            got, want = run.diagnostics, sol.diagnostics
            npt.assert_array_equal(got.alive_counts, want.alive_counts)
            npt.assert_array_equal(got.cond_numbers, want.cond_numbers)
            assert got.picard_deltas == want.picard_deltas
            assert (got.lambda_bound, got.y_bound, got.max_abs_y) == (
                want.lambda_bound, want.y_bound, want.max_abs_y)
            assert (got.smallness_ok, got.bound_violated) == (
                want.smallness_ok, want.bound_violated)
            assert run.y is None and run.z is None and run.chi1 is None
        alive = runs[0].diagnostics.alive_counts
        if regime == "all alive":
            assert (alive == bundle.n_paths).all()
            assert any(runs[0].diagnostics.picard_deltas), "driver should be active"
        elif regime == "some stopped":
            assert alive[1] < bundle.n_paths and alive.min() > 0
        else:
            assert runs[0].degenerate

    def test_terminals_of_different_lambda_rejected(self, default_config, monkeypatch):
        cfg = override(default_config, grid__n_steps=16)
        bundle, terminals, config = _unit_count_runs(cfg, 300, (200.0, 50.0))
        mixed = [terminals[0], dataclasses.replace(terminals[1], lam=terminals[1].lam / 2)]

        def no_pass(*args):
            raise AssertionError("the backward pass started")

        monkeypatch.setattr(bsde, "_BackwardPass", no_pass)
        with pytest.raises(InvalidParams, match="one impact fraction"):
            solve_and_hedge(bundle, mixed, config)

    def test_stock_position_needs_no_loading_matrix(self, default_config):
        # theta = 0 makes every loading matrix degenerate: the hedge
        # inversion raises, the x-pass still forms X = Z1 / (sigma1 Sigma S)
        cfg = override(default_config, grid__n_steps=16, bsde__l_trunc=5.2,
                       model__theta_kind="constant", model__theta_level=0.0)
        bundle, terminals, config = _unit_count_runs(cfg, 300, (200.0, 50.0, -25.0))
        runs = solve_and_hedge(bundle, terminals, config)
        sigma1 = bundle.params.decomp.sigma1
        for terminal, run in zip(terminals, runs):
            sol = solve_quadratic_bsde(bundle, terminal, config)
            alive = np.arange(bundle.n_nodes)[None, :] < sol.tau_index[:, None]
            want = np.where(alive, sol.z[..., 0] / (sigma1 * (bundle.sigma * bundle.s)), 0.0)
            npt.assert_array_equal(run.x, want)
            with pytest.raises(SingularSystem):
                hedge_from_solution(sol, bundle)


class TestMemory:
    """The backward pass and the hedge inversion allocate their outputs and
    per-step work arrays, not a second copy of the bundle or of the outputs."""

    def test_backward_pass_and_hedge_peaks(self, default_config):
        params = default_config.model_params()
        bundle = simulate_paths(params, default_config.time_grid(), 2000, seed=21)
        config = default_config.bsde_config()
        trunc = truncate_payoff(default_config.payoff(), config.n_trunc)
        term = terminal_condition(bundle, trunc, 1.0, 0.0)

        sol, solve_peak = traced_peak(
            lambda: solve_quadratic_bsde(bundle, term, config))
        solve_bytes = sol.y.nbytes + sol.z.nbytes + sol.xi.nbytes + sol.tau_index.nbytes
        assert solve_peak <= 1.5 * solve_bytes

        sol, hedge_peak = traced_peak(lambda: hedge_from_solution(sol, bundle))
        hedge_bytes = sol.x.nbytes + sol.chi1.nbytes + sol.chi2.nbytes
        assert hedge_peak <= 1.5 * hedge_bytes

    def test_joint_pass_peak(self, default_config):
        xs = (200.0, 100.0, 50.0, 25.0)
        bundle, terminals, config = _unit_count_runs(default_config, 2000, xs)
        runs, peak = traced_peak(lambda: solve_and_hedge(bundle, terminals, config))
        # per unit count the pass keeps X and xi; z lives one node at a time
        kept = sum(run.x.nbytes + run.xi.nbytes for run in runs) + runs[0].tau_index.nbytes
        assert peak <= 1.5 * kept
