"""Terminal payoff functions and the level truncation used by the solver.

Payoffs are Lipschitz maps of the terminal price; the truncation h^N
replaces h(y) by h(N) whenever |y| > N (the same constant on both tails),
which makes the terminal condition bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParams, MissingDerivative


@dataclass(frozen=True)
class Payoff:
    """A Lipschitz payoff with (optionally) its a.e. derivative.

    derivative uses the right-derivative convention at kink points.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    def d(self, y):
        if self.derivative is None:
            raise MissingDerivative(f"payoff {self.label} has no derivative")
        return self.derivative(np.asarray(y, dtype=float))


def identity_payoff() -> Payoff:
    return Payoff(fn=lambda y: y, label="identity", derivative=lambda y: np.ones_like(y))


def constant_payoff(value: float) -> Payoff:
    return Payoff(fn=lambda y: np.full_like(np.asarray(y, dtype=float), value),
                  label=f"constant_{value:g}", derivative=lambda y: np.zeros_like(y))


def call_ramp(strike: float, cap: float) -> Payoff:
    """Clipped call: 0 below the strike, linear up to the cap, flat beyond."""
    if cap <= 0:
        raise InvalidParams("call ramp cap must be positive")

    def fn(y):
        return np.clip(y - strike, 0.0, cap)

    def deriv(y):
        return np.where((y >= strike) & (y < strike + cap), 1.0, 0.0)

    return Payoff(fn=fn, label=f"call_ramp_{strike:g}_{cap:g}", derivative=deriv)


@dataclass(frozen=True)
class TruncatedPayoff:
    """Level-N truncation of a payoff: h(y) inside [-N, N], h(N) outside."""

    base: Payoff
    level: float
    bound: float  # max |h| over [-N, N]

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= self.level, self.base(y), self.base(self.level))

    def d(self, y):
        """Derivative of the truncation: h'(y) inside the band, 0 outside."""
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(y) <= self.level, self.base.d(y), 0.0)


def truncate_payoff(payoff: Payoff, level: float) -> TruncatedPayoff:
    """Apply the literal level rule; the bound C_N is scanned numerically.

    The scan is exact for piecewise-linear payoffs, which covers everything
    this package ships.
    """
    if level <= 0:
        raise InvalidParams("truncation level must be positive")
    probe = np.linspace(-level, level, 4001)
    bound = float(np.abs(payoff(probe)).max())
    return TruncatedPayoff(base=payoff, level=level, bound=bound)
