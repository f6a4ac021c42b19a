"""Property tests over drawn inputs, on the profile that conftest loads.

* The ledger: every LedgerReport array and the discrepancy of
  cash_decomposed equal, bit for bit, those of the verbatim whole-array
  reference in test_ledger_reference, for drawn impact fractions, path
  counts that cross several 64-row blocks, position kinds and swap
  liquidity; and the two cash forms agree within the ledger bound.
* The configuration: serialize then parse gives back every SCHEMA value,
  with its type, for drawn well-typed values.
* The hedge round trip: invert_hedge recovers the (stock, swap1, swap2)
  position from exposure_from_hedge at drawn states, within 1e-10 times
  max(1, |position|).
* Noise prefix stability: the first m paths of a draw of n are, bit for
  bit, the draw of m, for drawn seeds of one or more 32-bit words.
* The exit-code contract: cli.main runs each experiment on drawn
  configurations and sizes and exits 0, 2 or 3; exit 2 leaves no output
  directory, exit 3 writes diagnostics.json, and exit 0 writes no
  non-finite number into any CSV or JSON file.  tests/exit_code_counts.py
  counts the exit codes over the same draws.
"""

import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liqlab import (
    Strategy,
    SwapLiquidity,
    TimeGrid,
    cash_decomposed,
    decompose_correlation,
    draw_noise,
    exposure_from_hedge,
    invert_hedge,
    psi_matrix,
    simulate_paths,
    swap_price_paths,
    zeta_coeff,
)
from liqlab.cli import main
from liqlab.config import _CHOICES, EXPERIMENTS, SCHEMA, ScenarioConfig, parse_config_text

from conftest import override
from test_ledger_reference import REPORT_ARRAYS, reference_cash_decomposed, same_bits

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(lam=unit, n_paths=st.integers(1, 200), kind=st.sampled_from(["profile", "array", "swap legs"]),
       m1=st.floats(1e-4, 0.1), m2=st.floats(1e-4, 0.1), l1=unit, l2=unit,
       y0=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_ledger_bitwise_equal_to_reference(lam, n_paths, kind, m1, m2, l1, l2, y0, seed):
    cfg = override(ScenarioConfig(), grid__n_steps=8)
    bundle = simulate_paths(cfg.model_params(), cfg.time_grid(), n_paths, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    shape = (n_paths, bundle.n_nodes) if kind != "profile" else bundle.n_nodes
    strategy, extra = Strategy(x=rng.normal(0.0, 3.0, size=shape), y0=y0), {}
    if kind == "swap legs":
        prices = tuple(swap_price_paths(bundle, spec) for spec in cfg.swap_specs())
        strategy = Strategy(x=strategy.x, chi1=rng.normal(0.0, 1.0, size=bundle.n_nodes),
                            chi2=rng.normal(0.0, 1.0, size=shape), y0=y0)
        extra = {"swaps": SwapLiquidity(m1, m2, l1, l2), "swap_prices": prices}

    got = cash_decomposed(strategy, bundle, lam=lam, **extra)
    want = reference_cash_decomposed(strategy, bundle, lam=lam, **extra)
    for name in REPORT_ARRAYS:
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.discrepancy, want.discrepancy)
    assert got.discrepancy < 1e-9


def _value(key):
    typ, _ = SCHEMA[key]
    if key in _CHOICES:
        return st.sampled_from(sorted(_CHOICES[key]))
    if typ is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if typ is int:
        return st.integers()
    # one line per value: no line breaks, and the parser strips the ends
    return st.text(string.ascii_letters + string.digits + string.punctuation + " ",
                   max_size=12).map(str.strip)


@given(st.fixed_dictionaries({key: _value(key) for key in SCHEMA}))
def test_config_serialize_parse_round_trip(values):
    cfg = ScenarioConfig(values=values)
    again = parse_config_text(cfg.serialize())
    assert again == cfg
    assert [repr(again.values[key]) for key in SCHEMA] == [repr(values[key]) for key in SCHEMA]


position = st.floats(-25.0, 25.0)


@given(t=st.floats(0.0, 1.0), u=st.floats(0.01, 0.2), v=st.floats(0.01, 0.2),
       s=st.floats(30.0, 300.0), x=position, chi1=position, chi2=position)
def test_hedge_round_trip(t, u, v, s, x, chi1, chi2):
    cfg = ScenarioConfig()
    params, grid = cfg.model_params(), cfg.time_grid()
    psi = psi_matrix(t, u, v, s, params, grid.t1, grid.t2)
    sigma_s = np.sqrt(u + v) * s
    zeta_u = zeta_coeff(u, params)
    z = exposure_from_hedge(x, chi1, chi2, psi, sigma_s, zeta_u, params)
    for got, want in zip(invert_hedge(z, psi, sigma_s, zeta_u, params), (x, chi1, chi2)):
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128)),
       n_steps=st.integers(1, 16),
       sizes=st.integers(1, 300).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))))
def test_noise_prefix_stable(seed, n_steps, sizes):
    m, n = sizes
    grid, decomp = TimeGrid(horizon=1.0, n_steps=n_steps), decompose_correlation(np.eye(3))
    big = draw_noise(grid, decomp, n, seed).db
    assert big[:m].tobytes() == draw_noise(grid, decomp, m, seed).db.tobytes()


# Valid configurations over wide ranges of the model parameters, with each
# payoff, at small sizes, as `section.key` overrides.  alpha = gamma, which
# every experiment that hedges with swaps rejects, is not drawn.
exponent, scale, variance, rho = (st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.1, 2.0),
                                  st.floats(0.005, 0.2), st.floats(-0.5, 0.5))
cli_overrides = st.fixed_dictionaries({
    "model.gamma": st.floats(-1.0, 2.0), "model.alpha": st.floats(-1.0, 2.0),
    "model.eta": st.floats(0.0, 1.0), "model.a": st.floats(0.0, 1.0),
    "model.epsilon": st.sampled_from([0.0, 1e-3, 1e-2, 0.1]), "model.lambda_impact": unit,
    "model.phi_exponent": exponent, "model.phi_scale": scale,
    "model.theta_exponent": exponent, "model.theta_scale": scale,
    "model.s0": st.floats(50.0, 150.0), "model.u0": variance, "model.v0": variance,
    "model.rho12": rho, "model.rho13": rho, "model.rho23": rho,
    "payoff.kind": st.sampled_from(sorted(_CHOICES[("payoff", "kind")])),
    "run.n_paths": st.integers(50, 200), "grid.n_steps": st.integers(2, 8),
    "run.seed": st.integers(0, 10**6),
}).filter(lambda o: o["model.alpha"] != o["model.gamma"])


def run_cli(experiment: str, overrides: dict, out: Path) -> int:
    """cli.main for one experiment under the overrides, writing into out."""
    args = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    return main([experiment, "--out", str(out), *args])


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


# Nearly every drawn replicate run exits 3 (a degenerate loading matrix
# within a few nodes), so each experiment also runs the default scenario at
# 16 steps with a constant payoff, whose replicate report has both log-log
# slopes undefined.
@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=20)
@example(overrides={"payoff.kind": "constant", "run.n_paths": 200, "grid.n_steps": 16})
@given(overrides=cli_overrides)
def test_exit_code_contract(experiment, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run_cli(experiment, overrides, out)
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
        elif code == 3:
            assert (out / "diagnostics.json").exists()
        else:
            for path in [*out.glob("*.csv"), *out.glob("*.json")]:
                assert not NON_FINITE.search(path.read_text()), path.name
