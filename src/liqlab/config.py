"""Flat key = value scenario configuration with bracketed sections.

The format is line-based and diff-friendly: a `[section]` header starts a
section, `key = value` lines assign within it, blank lines and `#`
comments are skipped, anything else is an error.  Unknown sections or
keys are rejected with the offending line number.  Every run serializes
its fully resolved configuration next to the outputs; serialization uses
17 significant digits so floats round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import BsdeConfig
from .errors import ParseError, ValidationError, ValidationFailure
from .ledger import SwapLiquidity
from .market import GammaMap, ModelParams, VolCoeff
from .noise import TimeGrid, decompose_correlation
from .payoffs import Payoff, call_ramp, constant_payoff, identity_payoff
from .replication import check_unit_counts
from .swaps import SwapSpec

# (section, key) -> (type, default)
SCHEMA: dict[tuple[str, str], tuple[type, object]] = {
    ("model", "gamma"): (float, 0.5),
    ("model", "eta"): (float, 0.5),
    ("model", "alpha"): (float, 0.05),
    ("model", "a"): (float, 0.25),
    ("model", "epsilon"): (float, 1e-3),
    ("model", "lambda_impact"): (float, 0.5),
    ("model", "gamma_map"): (str, "identity"),
    ("model", "phi_kind"): (str, "power"),
    ("model", "phi_exponent"): (float, 1.0),
    ("model", "phi_scale"): (float, 1.0),
    ("model", "phi_level"): (float, 0.0),
    ("model", "theta_kind"): (str, "power"),
    ("model", "theta_exponent"): (float, 1.0),
    ("model", "theta_scale"): (float, 1.0),
    ("model", "theta_level"): (float, 0.0),
    ("model", "s0"): (float, 100.0),
    ("model", "u0"): (float, 0.02),
    ("model", "v0"): (float, 0.02),
    ("model", "rho12"): (float, -0.3),
    ("model", "rho13"): (float, -0.2),
    ("model", "rho23"): (float, 0.3),
    ("grid", "horizon"): (float, 1.0),
    ("grid", "n_steps"): (int, 64),
    ("grid", "t1"): (float, 1.25),
    ("grid", "t2"): (float, 2.5),
    ("swaps", "k1"): (float, 0.31),
    ("swaps", "k2"): (float, 1.43),
    ("swaps", "m1"): (float, 0.005),
    ("swaps", "m2"): (float, 0.005),
    ("swaps", "lambda1"): (float, 0.5),
    ("swaps", "lambda2"): (float, 0.5),
    ("bsde", "l_trunc"): (float, 50.0),
    ("bsde", "n_trunc"): (float, 400.0),
    ("bsde", "degree"): (int, 2),
    ("bsde", "picard_iters"): (int, 5),
    ("bsde", "picard_tol"): (float, 1e-8),
    ("bsde", "ridge"): (float, 1e-8),
    ("bsde", "min_paths"): (int, 0),
    ("payoff", "kind"): (str, "call_ramp"),
    ("payoff", "strike"): (float, 100.0),
    ("payoff", "cap"): (float, 100.0),
    ("payoff", "value"): (float, 0.0),
    ("strategy", "kind"): (str, "round_trip"),
    ("strategy", "size"): (float, 1.0),
    ("strategy", "n_knots"): (int, 8),
    ("run", "experiment"): (str, ""),
    ("run", "n_paths"): (int, 2000),
    ("run", "seed"): (int, 1),
    ("run", "out_dir"): (str, "liqlab_out"),
    ("run", "x0"): (float, 1000.0),
    ("run", "n_x"): (int, 3),
    ("run", "threads"): (int, 1),
}

_CHOICES = {
    ("model", "gamma_map"): {"identity", "square"},
    ("model", "phi_kind"): {"power", "constant"},
    ("model", "theta_kind"): {"power", "constant"},
    ("payoff", "kind"): {"call_ramp", "identity", "constant"},
    ("strategy", "kind"): {"round_trip", "buy_and_hold", "random"},
}

EXPERIMENTS = ("simulate", "ledger", "swaps", "bsde", "replicate", "arbitrage-test")


@dataclass
class ScenarioConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (_, default) in SCHEMA.items():
            self.values.setdefault(key, default)

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def set(self, section: str, key: str, raw: str) -> None:
        if (section, key) not in SCHEMA:
            raise ParseError(f"unknown key {section}.{key}")
        self.values[(section, key)] = _coerce(section, key, raw)

    # -- builders -------------------------------------------------------

    def _vol(self, prefix: str) -> VolCoeff:
        kind = self.get("model", f"{prefix}_kind")
        if kind == "power":
            return VolCoeff.power(self.get("model", f"{prefix}_exponent"),
                                  self.get("model", f"{prefix}_scale"))
        return VolCoeff.constant(self.get("model", f"{prefix}_level"))

    def model_params(self) -> ModelParams:
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = self.get("model", "rho12")
        corr[0, 2] = corr[2, 0] = self.get("model", "rho13")
        corr[1, 2] = corr[2, 1] = self.get("model", "rho23")
        gmap = GammaMap.identity() if self.get("model", "gamma_map") == "identity" \
            else GammaMap.square()
        return ModelParams(
            gamma=self.get("model", "gamma"), eta=self.get("model", "eta"),
            alpha=self.get("model", "alpha"), a=self.get("model", "a"),
            epsilon=self.get("model", "epsilon"),
            lambda_impact=self.get("model", "lambda_impact"),
            gamma_map=gmap, phi=self._vol("phi"), theta=self._vol("theta"),
            s0=self.get("model", "s0"), u0=self.get("model", "u0"),
            v0=self.get("model", "v0"), decomp=decompose_correlation(corr),
        )

    def time_grid(self) -> TimeGrid:
        return TimeGrid(horizon=self.get("grid", "horizon"),
                        n_steps=self.get("grid", "n_steps"),
                        t1=self.get("grid", "t1"), t2=self.get("grid", "t2"))

    def bsde_config(self) -> BsdeConfig:
        return BsdeConfig(
            l_trunc=self.get("bsde", "l_trunc"), n_trunc=self.get("bsde", "n_trunc"),
            degree=self.get("bsde", "degree"),
            picard_iters=self.get("bsde", "picard_iters"),
            picard_tol=self.get("bsde", "picard_tol"),
            min_paths_per_regression=self.get("bsde", "min_paths"),
            ridge=self.get("bsde", "ridge"),
        )

    def payoff(self) -> Payoff:
        kind = self.get("payoff", "kind")
        if kind == "call_ramp":
            return call_ramp(self.get("payoff", "strike"), self.get("payoff", "cap"))
        if kind == "identity":
            return identity_payoff()
        return constant_payoff(self.get("payoff", "value"))

    def unit_counts(self) -> list[float]:
        """run.x0 halved run.n_x - 1 times: the unit counts `replicate` runs."""
        x0 = self.get("run", "x0")
        return [x0 * 0.5 ** i for i in range(self.get("run", "n_x"))]

    def swap_specs(self) -> tuple[SwapSpec, SwapSpec]:
        return (SwapSpec(self.get("grid", "t1"), self.get("swaps", "k1")),
                SwapSpec(self.get("grid", "t2"), self.get("swaps", "k2")))

    def swap_liquidity(self) -> SwapLiquidity:
        return SwapLiquidity(m1=self.get("swaps", "m1"), m2=self.get("swaps", "m2"),
                             l1=self.get("swaps", "lambda1"), l2=self.get("swaps", "lambda2"))

    # -- validation -----------------------------------------------------

    def validate(self, experiment: str | None = None) -> None:
        """Reject the configuration before any heavy computation starts.

        Numeric range rules live in the domain objects the configuration
        builds; this only adds the checks no domain object owns.
        """
        for pair, choices in _CHOICES.items():
            val = self.values[pair]
            if val not in choices:
                raise ValidationError(
                    f"{pair[0]}.{pair[1]} must be one of {sorted(choices)}, got {val!r}"
                )
        for (section, key), val in self.values.items():
            if isinstance(val, float) and not np.isfinite(val):
                raise ValidationError(f"{section}.{key} must be finite, got {val!r}")
        if self.get("run", "n_paths") < 1:
            raise ValidationError("run.n_paths must be at least 1")
        if self.get("run", "seed") < 0:
            raise ValidationError("run.seed must be nonnegative")
        if self.get("strategy", "n_knots") < 0:
            raise ValidationError("strategy.n_knots must be nonnegative")
        if experiment is not None and experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {experiment!r}")
        try:
            params = self.model_params()
            params.validate(require_swap_hedging=experiment in ("swaps", "bsde", "replicate"))
            self.time_grid()
            self.swap_liquidity()
            self.bsde_config()
            self.payoff()
            check_unit_counts(self.unit_counts())
        except ValidationFailure as exc:
            raise ValidationError(str(exc)) from exc
        if experiment == "arbitrage-test" and not params.submartingale_ok:
            raise ValidationError(
                "arbitrage-test needs gamma_map=identity with positive gamma and eta"
            )
        if experiment == "arbitrage-test" and self.get("run", "n_paths") < 2:
            raise ValidationError("arbitrage-test needs run.n_paths of at least 2")

    # -- serialization --------------------------------------------------

    def serialize(self) -> str:
        lines = []
        sections = sorted({s for s, _ in SCHEMA})
        for section in sections:
            lines.append(f"[{section}]")
            for (sec, key) in sorted(SCHEMA):
                if sec != section:
                    continue
                val = self.values[(sec, key)]
                lines.append(f"{key} = {_render(val)}")
            lines.append("")
        return "\n".join(lines)

    def copy(self) -> "ScenarioConfig":
        return ScenarioConfig(values=dict(self.values))


def _render(val) -> str:
    if isinstance(val, float):
        return format(val, ".17g")
    return str(val)


def _coerce(section: str, key: str, raw: str):
    typ, _ = SCHEMA[(section, key)]
    raw = raw.strip()
    if typ is str:
        return raw
    try:
        if typ is int:
            if "." in raw or "e" in raw.lower():
                raise ValueError
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"{section}.{key} expects {typ.__name__}, got {raw!r}") from exc


def parse_config_text(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in {s for s, _ in SCHEMA}:
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line_no)
        if section is None:
            raise ParseError("key assignment before any [section] header", line_no)
        key, _, raw = stripped.partition("=")
        try:
            cfg.set(section, key.strip(), raw)
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None
    return cfg


def parse_config(path) -> ScenarioConfig:
    """Read and resolve a scenario file; defaults fill any omitted key."""
    with open(path) as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: ScenarioConfig, overrides) -> ScenarioConfig:
    """Apply 'section.key=value' strings on top of a parsed config."""
    out = cfg.copy()
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not KEY=VALUE")
        dotted, _, raw = item.partition("=")
        if "." not in dotted:
            raise ParseError(f"override key {dotted!r} must be section.key")
        section, _, key = dotted.strip().partition(".")
        out.set(section, key.strip(), raw)
    return out
