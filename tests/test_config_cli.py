import json

import pytest

from liqlab.cli import main, run
from liqlab.config import (
    ScenarioConfig,
    apply_overrides,
    parse_config,
    parse_config_text,
)
from liqlab.errors import ParseError, ValidationError

from conftest import traced_peak


class TestParsing:
    def test_empty_text_gives_pure_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ScenarioConfig()

    def test_minimal_file_round_trips(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("[model]\nepsilon = 0.002\n\n[run]\nseed = 9\n")
        cfg = parse_config(path)
        assert cfg.get("model", "epsilon") == 0.002
        assert cfg.get("run", "seed") == 9
        # defaults filled everywhere else
        assert cfg.get("grid", "n_steps") == ScenarioConfig().get("grid", "n_steps")
        # serialize -> parse is the identity on resolved configs
        again = parse_config_text(cfg.serialize())
        assert again == cfg
        # floats survive the 17-digit round trip bit-exactly
        cfg.values[("model", "epsilon")] = 0.1 + 0.2
        assert parse_config_text(cfg.serialize()) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# top comment\n\n[model]\n# inner\ngamma = 0.75\n")
        assert cfg.get("model", "gamma") == 0.75

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[warp]\nspeed = 9\n")
        assert err.value.line_no == 1

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[model]\nvolatility = 2\n")
        assert err.value.line_no == 2

    def test_key_before_section(self):
        with pytest.raises(ParseError):
            parse_config_text("gamma = 1\n")

    def test_bad_literal(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[grid]\nn_steps = 12.5\n")
        assert err.value.line_no == 2

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config_text("[model]\ngamma 1\n")


class TestOverrides:
    def test_override_applies(self):
        cfg = apply_overrides(ScenarioConfig(), ["model.epsilon=0", "run.seed=4"])
        assert cfg.get("model", "epsilon") == 0.0
        assert cfg.get("run", "seed") == 4

    def test_bad_override_key(self):
        with pytest.raises(ParseError):
            apply_overrides(ScenarioConfig(), ["model.nope=1"])

    def test_bad_override_shape(self):
        with pytest.raises(ParseError):
            apply_overrides(ScenarioConfig(), ["noequals"])


class TestValidation:
    def test_lambda_range_message(self):
        cfg = apply_overrides(ScenarioConfig(), ["model.lambda_impact=1.5"])
        with pytest.raises(ValidationError, match=r"lambda_impact must lie in \[0,1\]"):
            cfg.validate()

    def test_equal_rates_rejected_for_replicate(self):
        cfg = apply_overrides(ScenarioConfig(), ["model.alpha=0.5"])
        with pytest.raises(ValidationError, match="singular"):
            cfg.validate(experiment="replicate")
        cfg.validate(experiment="simulate")  # no completion needed

    def test_arbitrage_needs_submartingale_setup(self):
        cfg = apply_overrides(ScenarioConfig(), ["model.gamma=-0.1"])
        with pytest.raises(ValidationError):
            cfg.validate(experiment="arbitrage-test")

    def test_maturities_checked(self):
        cfg = apply_overrides(ScenarioConfig(), ["grid.t1=0.5"])
        with pytest.raises(ValidationError):
            cfg.validate()

    @pytest.mark.parametrize("experiment, overrides", [
        ("simulate", ["swaps.lambda1=1.5"]),
        ("simulate", ["swaps.lambda2=-0.1"]),
        ("simulate", ["model.epsilon=-0.001"]),
        ("simulate", ["model.s0=0"]),
        ("simulate", ["model.u0=-0.01"]),
        ("simulate", ["model.v0=0"]),
        ("simulate", ["grid.horizon=0"]),
        ("simulate", ["grid.n_steps=0"]),
        ("simulate", ["grid.t1=0.5"]),
        ("simulate", ["grid.t2=1.0"]),
        ("simulate", ["grid.t1=2.5", "grid.t2=2.5"]),
        ("simulate", ["swaps.m1=0"]),
        ("simulate", ["swaps.m2=-1"]),
        ("simulate", ["bsde.l_trunc=1"]),
        ("simulate", ["bsde.n_trunc=0"]),
        ("simulate", ["run.n_paths=0"]),
        ("bogus", []),
        ("simulate", ["model.epsilon=nan"]),
        ("simulate", ["model.epsilon=inf"]),
        ("swaps", ["swaps.k1=nan"]),
        ("swaps", ["grid.t1=nan"]),
        ("bsde", ["bsde.ridge=nan"]),
        ("bsde", ["bsde.ridge=-1"]),
        ("replicate", ["run.n_x=0"]),
        ("replicate", ["run.x0=0"]),
        ("simulate", ["run.seed=-1"]),
        ("replicate", ["model.theta_kind=constant", "model.theta_level=0"]),
        ("bsde", ["model.phi_kind=constant", "model.phi_level=0"]),
        ("swaps", ["model.theta_scale=0"]),
        ("bsde", ["model.phi_exponent=3"]),
        ("replicate", ["model.theta_exponent=0.75"]),
        ("arbitrage-test", ["run.n_paths=1"]),
        ("ledger", ["strategy.kind=random", "strategy.n_knots=-1"]),
        ("bsde", ["bsde.ridge=0"]),
        ("replicate", ["bsde.picard_iters=0"]),
        ("bsde", ["bsde.picard_tol=-1"]),
        ("replicate", ["run.x0=5e-324", "run.n_x=2"]),
        ("replicate", ["run.n_x=1100"]),
        ("replicate", ["grid.horizon=5e-324"]),
    ])
    def test_rejected_before_any_output(self, experiment, overrides, tmp_path):
        cfg = apply_overrides(ScenarioConfig(), overrides)
        with pytest.raises(ValidationError):
            cfg.validate(experiment=experiment)
        out = tmp_path / "o"
        assert run(experiment, cfg, out) == 2
        assert not out.exists()

    def test_underflowing_unit_count_rejected_in_constant_memory(self, tmp_path):
        # all 10**9 counts would take tens of GB; the last one is 0
        cfg = apply_overrides(ScenarioConfig(), [f"run.n_x={10**9}"])
        out = tmp_path / "o"
        code, peak = traced_peak(lambda: run("simulate", cfg, out))
        assert code == 2
        assert not out.exists()
        assert peak < 2**20


def run_cli(args):
    return main(args)


BASE = ["--set", "run.n_paths=6", "--set", "grid.n_steps=8"]


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli(["simulate", "--out", str(out), "--seed", "3", *BASE])
        assert code == 0
        assert (out / "paths.csv").exists()
        assert (out / "resolved.cfg").exists()
        info = json.loads((out / "run_info.json").read_text())
        assert info["seed"] == 3 and "version" in info

    def test_validation_exit_code(self, tmp_path):
        code = run_cli(["simulate", "--out", str(tmp_path / "x"),
                        "--set", "model.lambda_impact=2.0"])
        assert code == 2

    def test_unknown_key_exit_code(self, tmp_path):
        code = run_cli(["simulate", "--out", str(tmp_path / "x"),
                        "--set", "model.bogus=1"])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # six paths cannot support a ten-feature regression
        out = tmp_path / "x"
        code = run_cli(["bsde", "--out", str(out), *BASE])
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "RegressionRankDeficient"

    @pytest.mark.parametrize("subcommand", ["simulate", "ledger"])
    def test_exploding_factor_is_a_numerical_failure(self, subcommand, tmp_path):
        # a cubic U diffusion overflows within eight steps on some paths
        out = tmp_path / "x"
        code = run_cli([subcommand, "--out", str(out), "--seed", "1",
                        "--set", "run.n_paths=50", "--set", "grid.n_steps=8",
                        "--set", "model.u0=1", "--set", "model.gamma=5",
                        "--set", "model.phi_exponent=3", "--set", "model.phi_scale=80"])
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "DegenerateState"
        assert not list(out.glob("*.csv"))

    def test_ledger_zero_liquidity_zero_cost_columns(self, tmp_path):
        out = tmp_path / "led"
        code = run_cli(["ledger", "--out", str(out), "--seed", "2",
                        "--set", "run.n_paths=4", "--set", "grid.n_steps=8",
                        "--set", "model.epsilon=0",
                        "--set", "model.lambda_impact=0"])
        assert code == 0
        lines = (out / "ledger.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        i_impact = header.index("impact_term")
        i_quad = header.index("quad_cost")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[i_impact]) == 0.0
            assert float(cells[i_quad]) == 0.0
        summary = json.loads((out / "ledger_summary.json").read_text())
        assert summary["max_relative_discrepancy"] < 1e-9

    def test_swaps_outputs(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli(["swaps", "--out", str(out), "--seed", "5",
                        "--set", "run.n_paths=12", "--set", "grid.n_steps=8"])
        assert code == 0
        summary = json.loads((out / "swaps_summary.json").read_text())
        assert summary["min_abs_det_psi"] > 0
        assert not summary["alpha_equals_gamma"]

    def test_bsde_runs_at_desk_scale(self, tmp_path):
        out = tmp_path / "bs"
        code = run_cli(["bsde", "--out", str(out), "--seed", "4",
                        "--set", "run.n_paths=400", "--set", "grid.n_steps=8"])
        assert code == 0
        summary = json.loads((out / "bsde_summary.json").read_text())
        assert summary["y0"] > 0
        diag_lines = (out / "bsde_diagnostics.csv").read_text().strip().splitlines()
        assert len(diag_lines) == 1 + 8

    def test_arbitrage_test_runs(self, tmp_path):
        out = tmp_path / "arb"
        code = run_cli(["arbitrage-test", "--out", str(out), "--seed", "6",
                        "--set", "run.n_paths=500", "--set", "grid.n_steps=16"])
        assert code == 0
        summary = json.loads((out / "arbitrage_summary.json").read_text())
        assert summary["violates"] in (False, True)

    def test_replicate_runs_at_desk_scale(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli(["replicate", "--out", str(out), "--seed", "8",
                        "--set", "run.n_paths=800", "--set", "grid.n_steps=32",
                        "--set", "run.x0=50", "--set", "run.n_x=2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["rows"]) == 2

    @pytest.mark.parametrize("override", ["payoff.kind=constant",
                                          "payoff.strike=450",   # constant after truncation
                                          "payoff.strike=300",   # flat on every terminal
                                          "run.n_x=1"])
    def test_replicate_undefined_slopes_written_null(self, override, tmp_path):
        # fewer than two positive points leave both log-log slopes undefined
        out = tmp_path / "rep"
        code = run_cli(["replicate", "--out", str(out), "--seed", "909",
                        "--set", "run.n_paths=400", "--set", override])
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["summary"]["h0_slope"] is None
        assert report["summary"]["impact_slope"] is None

    def test_byte_identical_reruns_across_threads(self, tmp_path):
        outs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / tag
            code = run_cli(["simulate", "--out", str(out), "--seed", "11",
                            "--threads", threads,
                            "--set", "run.n_paths=4", "--set", "grid.n_steps=8"])
            assert code == 0
            outs.append((out / "paths.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_file(self, tmp_path):
        code = run_cli(["simulate", "--config", str(tmp_path / "absent.cfg"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[run]\nn_paths = 5\nseed = 1\n\n[grid]\nn_steps = 8\n")
        out = tmp_path / "o"
        code = run_cli(["simulate", "--config", str(path), "--out", str(out),
                        "--set", "run.n_paths=3"])
        assert code == 0
        resolved = (out / "resolved.cfg").read_text()
        assert "n_paths = 3" in resolved
