"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; budgets are wall-clock upper bounds, generous on purpose.
"""

import time

import numpy as np
import pytest

import liqlab as ll
from liqlab import ScenarioConfig
from liqlab.swaps import psi_matrix

from conftest import override


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def default_cfg():
    return ScenarioConfig()


def test_criterion_1_ledger_identity(default_cfg):
    t0 = time.monotonic()
    cfg = override(default_cfg, grid__n_steps=256)
    bundle = ll.simulate_paths(cfg.model_params(), cfg.time_grid(), 100, seed=101)
    specs = cfg.swap_specs()
    prices = (ll.swap_price_paths(bundle, specs[0]),
              ll.swap_price_paths(bundle, specs[1]))
    swaps = cfg.swap_liquidity()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        lam = float(rng.uniform(0.0, 1.0))
        knots = np.sort(rng.choice(256, size=8, replace=False))
        x = np.zeros(bundle.n_nodes)
        c1 = np.zeros(bundle.n_nodes)
        c2 = np.zeros(bundle.n_nodes)
        for j, k in enumerate(knots):
            end = knots[j + 1] if j + 1 < len(knots) else bundle.n_nodes
            x[k:end] = rng.normal(0, 5)
            c1[k:end] = rng.normal(0, 2)
            c2[k:end] = rng.normal(0, 2)
        strat = ll.Strategy(x=x, chi1=c1, chi2=c2, y0=float(rng.normal(0, 10)))
        report = ll.cash_decomposed(strat, bundle, lam=lam, swaps=swaps,
                                    swap_prices=prices)
        worst = max(worst, report.discrepancy)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(1, f"max relative ledger discrepancy {worst:.3e} over 100 strategies "
               f"({elapsed:.1f}s)")


def test_criterion_2_no_arbitrage_harness(default_cfg):
    t0 = time.monotonic()
    cfg = override(default_cfg, model__gamma=0.5, model__eta=0.5)
    params = cfg.model_params()
    assert params.submartingale_ok
    grid = cfg.time_grid()
    family = ll.round_trip_family(grid, 20, base_size=3.0, seed=7)
    assert len(family) == 20
    result = ll.arbitrage_harness(family, params, grid, 10_000, seed=303)
    elapsed = time.monotonic() - t0
    assert not result.violates
    assert (result.means <= 3.0 * result.stderrs).all()
    assert elapsed < 60.0
    _report(2, f"20 closed strategies, worst mean/stderr z = {result.worst_z:.2f} "
               f"({elapsed:.1f}s)")


def test_criterion_3_swap_pricing_consistency(default_cfg):
    t0 = time.monotonic()
    sets = {
        "alpha_zero": dict(model__gamma=0.2, model__eta=0.05, model__alpha=0.0,
                           model__a=0.1),
        "both_rates": dict(model__gamma=0.25, model__eta=0.03, model__alpha=0.1,
                           model__a=0.03),
    }
    t1_years, t2_years = 1.5, 1.75
    n_steps = 448  # puts the shorter maturity exactly on a grid node
    node_t1 = int(round(t1_years / t2_years * n_steps))
    zs = {}
    for label, overrides in sets.items():
        cfg = override(default_cfg, **overrides)
        params = cfg.model_params()
        grid = ll.TimeGrid(horizon=t2_years, n_steps=n_steps)
        bundle = ll.simulate_paths(params, grid, 100_000, seed=404)
        for maturity, node in ((t1_years, node_t1), (t2_years, n_steps)):
            spec = ll.SwapSpec(maturity=maturity, strike=0.05)
            closed = float(ll.swap_price(0.0, params.u0, params.v0, 0.0, params, spec))
            payout = bundle.rv[:, node] - spec.strike
            se = payout.std(ddof=1) / np.sqrt(payout.shape[0])
            z = abs(payout.mean() - closed) / se
            zs[f"{label} T={maturity}"] = z
            assert z < 3.0, f"{label} T={maturity}: z={z:.2f}"
        del bundle

    # loading-matrix determinant checks on the default (separated-rates) model
    cfg = default_cfg
    params = cfg.model_params()
    grid = cfg.time_grid()
    bundle = ll.simulate_paths(params, grid, 10, seed=505)
    times = grid.times()
    psi = psi_matrix(times[None, :], bundle.u, bundle.v, bundle.s, params,
                     grid.t1, grid.t2)
    dets = psi.det()
    assert (dets != 0.0).all()
    min_scaled = float(np.min(np.abs(dets) / np.abs(psi.entries).max(axis=(-2, -1)) ** 3))

    cfg_eq = override(default_cfg, model__alpha=cfg.get("model", "gamma"))
    params_eq = cfg_eq.model_params()
    psi_eq = psi_matrix(times[None, :], bundle.u, bundle.v, bundle.s, params_eq,
                        grid.t1, grid.t2)
    scale = np.abs(psi_eq.entries).max(axis=(-2, -1)) ** 3
    assert (np.abs(psi_eq.det()) < 1e-12 * scale).all()

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    worst_z = max(zs.values())
    _report(3, f"worst pricing z = {worst_z:.2f}; min scaled |det psi| = "
               f"{min_scaled:.2e}; singular at equal rates ({elapsed:.1f}s)")


def test_criterion_4_linear_solver_oracle(default_cfg):
    t0 = time.monotonic()
    cfg = override(default_cfg, grid__n_steps=64)
    params = cfg.model_params()
    grid = cfg.time_grid()
    config = cfg.bsde_config()
    payoff = ll.call_ramp(100.0, 100.0)
    trunc = ll.truncate_payoff(payoff, config.n_trunc)

    bundle = ll.simulate_paths(params, grid, 100_000, seed=606)
    term = ll.terminal_condition(bundle, trunc, x_units=1.0, lam=0.0)
    sol = ll.solve_quadratic_bsde(bundle, term, config)

    oracle_bundle = ll.simulate_paths(params, grid, 100_000, seed=70707)
    oracle = trunc(oracle_bundle.s[:, -1])
    se = float(np.hypot(sol.y0_stderr, oracle.std(ddof=1) / np.sqrt(oracle.shape[0])))
    z = abs(sol.y0 - oracle.mean()) / se
    elapsed = time.monotonic() - t0
    assert z < 3.0
    assert elapsed < 120.0
    _report(4, f"regression value {sol.y0:.4f} vs independent MC {oracle.mean():.4f} "
               f"(z = {z:.2f}, {elapsed:.1f}s)")


def test_criterion_5_hedge_round_trip(default_cfg):
    t0 = time.monotonic()
    params = default_cfg.model_params()
    grid = default_cfg.time_grid()
    rng = np.random.default_rng(808)
    n = 1000
    t = rng.uniform(0.0, grid.horizon, n)
    u = rng.uniform(0.005, 0.4, n)
    v = rng.uniform(0.005, 0.4, n)
    s = rng.uniform(10.0, 400.0, n)
    x = rng.normal(0.0, 10.0, n)
    c1 = rng.normal(0.0, 10.0, n)
    c2 = rng.normal(0.0, 10.0, n)
    psi = psi_matrix(t, u, v, s, params, grid.t1, grid.t2)
    sigma_s = np.sqrt(u + v) * s
    zeta_u = ll.zeta_coeff(u, params)
    z = ll.exposure_from_hedge(x, c1, c2, psi, sigma_s, zeta_u, params)
    xr, c1r, c2r = ll.invert_hedge(z, psi, sigma_s, zeta_u, params)
    err = max(np.abs(xr - x).max(), np.abs(c1r - c1).max(), np.abs(c2r - c2).max())
    elapsed = time.monotonic() - t0
    assert err <= 1e-10
    assert elapsed < 1.0
    _report(5, f"1000-state round trip, max abs error {err:.2e} ({elapsed:.2f}s)")


X0 = 200.0


@pytest.fixture(scope="module")
def curve3(default_cfg):
    cfg = override(default_cfg, grid__n_steps=64)
    return ll.replication_cost_curve(
        cfg.model_params(), cfg.time_grid(), cfg.payoff(),
        [X0, X0 / 2, X0 / 4], 100_000, 909, cfg.bsde_config(),
    )


def test_criterion_6_unit_cost_limit(default_cfg, curve3):
    t0 = time.monotonic()
    report = curve3
    diffs = report.diff_means
    abs_diffs = np.abs(diffs)
    assert abs_diffs[0] > abs_diffs[1] > abs_diffs[2]
    assert 0.7 <= report.h0_slope <= 1.3
    # fit the per-unit bound on the two larger unit counts and check the
    # smallest one against the extrapolation
    xs = report.xs
    k_fit = float(np.sum(diffs[:2] * xs[:2]) / np.sum(xs[:2] ** 2))
    se_k = float(np.sqrt(np.sum((report.diff_stderrs[:2] * xs[:2]) ** 2))
                 / np.sum(xs[:2] ** 2))
    predicted = k_fit * xs[2]
    combined = float(np.hypot(report.diff_stderrs[2], se_k * xs[2]))
    gap = abs(diffs[2] - predicted)
    assert gap < 3.0 * combined
    elapsed = time.monotonic() - t0
    _report(6, f"|H0(x)-H0(0)| = {abs_diffs.round(6).tolist()} decreasing, "
               f"slope {report.h0_slope:.3f}, smallest-x gap {gap:.2e} < "
               f"3x{combined:.2e} (fixture+{elapsed:.1f}s)")


@pytest.fixture(scope="module")
def curve4(default_cfg):
    cfg = override(default_cfg, grid__n_steps=64)
    return ll.replication_cost_curve(
        cfg.model_params(), cfg.time_grid(), cfg.payoff(),
        [X0, X0 / 2, X0 / 4, X0 / 8], 100_000, 909, cfg.bsde_config(),
    )


def test_criterion_7_impact_error_order(curve4):
    report = curve4
    assert np.all(report.impact_errs > 0)
    assert report.impact_slope >= 2.5
    _report(7, f"impact-gap mean squares {report.impact_errs.tolist()} with "
               f"log-log slope {report.impact_slope:.2f} >= 2.5")


def test_criterion_8_derivative_formula(default_cfg, curve3):
    t0 = time.monotonic()
    report = curve3
    gap = abs(report.hprime0_fd - report.hprime0_analytic)
    combined = float(np.hypot(report.hprime0_fd_stderr,
                              report.hprime0_analytic_stderr))
    assert gap < 3.0 * combined

    # exact zeros without impact or without depth movement
    cfg0 = override(default_cfg, grid__n_steps=32, model__lambda_impact=0.0)
    r0 = ll.replication_cost_curve(cfg0.model_params(), cfg0.time_grid(),
                                   cfg0.payoff(), [50.0], 2000, 31,
                                   cfg0.bsde_config())
    assert r0.hprime0_analytic == 0.0
    cfg1 = override(default_cfg, grid__n_steps=32, model__epsilon=0.0)
    r1 = ll.replication_cost_curve(cfg1.model_params(), cfg1.time_grid(),
                                   cfg1.payoff(), [50.0], 2000, 32,
                                   cfg1.bsde_config())
    assert r1.hprime0_analytic == 0.0
    elapsed = time.monotonic() - t0
    _report(8, f"analytic {report.hprime0_analytic:.3e} vs finite-difference "
               f"{report.hprime0_fd:.3e} (gap {gap:.1e} < 3x{combined:.1e}); "
               f"exact zeros verified ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    from liqlab.cli import main

    t0 = time.monotonic()
    byte_sets = {}
    for sub, files in (("simulate", ["paths.csv"]),
                       ("ledger", ["ledger.csv", "ledger_summary.json"]),
                       ("swaps", ["swaps.csv", "swaps_summary.json"])):
        runs = []
        for tag, threads in (("a", "1"), ("b", "8")):
            out = tmp_path / f"{sub}_{tag}"
            code = main([sub, "--out", str(out), "--seed", "99",
                         "--threads", threads,
                         "--set", "run.n_paths=50", "--set", "grid.n_steps=32",
                         "--set", "strategy.kind=random"])
            assert code == 0
            runs.append(tuple((out / f).read_bytes() for f in files))
        assert runs[0] == runs[1]
        byte_sets[sub] = len(runs[0])
    elapsed = time.monotonic() - t0
    _report(9, f"byte-identical re-runs across thread settings for "
               f"{sorted(byte_sets)} ({elapsed:.1f}s)")
