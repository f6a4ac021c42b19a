"""Exogenous market simulation: price, variance factors, order-book depth.

The traded asset follows dS = Sigma * S dW1 with Sigma^2 = U + V, where

    dU = gamma * (U + eta) dt + Phi(U) dW2
    dV = alpha * (V + a)  dt + Theta(V) dW3

and the order-book depth is M = epsilon * Gamma(U).  U and V are advanced
with a full-truncation explicit Euler step (drift and diffusion evaluated
at max(state, 0)); the price uses an exact-log step so it stays positive.
The stored U, V are the truncated values, which keeps Sigma^2 = U + V and
M = epsilon * Gamma(U) node-exact.

mu_coeff / zeta_coeff / driver_coefficient are the depth drift, the depth
diffusion weight and the quadratic-driver coefficient used by the
backward solver.  They take the U-state directly: the depth is a known
monotone function of U, so there is no need to invert it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateState, InvalidParams
from .noise import CorrelationDecomposition, NoiseBlock, TimeGrid, draw_noise
from .table import grid_index, write_table

_STATE_FLOOR = 1e-14


@dataclass(frozen=True)
class GammaMap:
    """Strictly increasing C^2 map from the U-factor to order-book depth units."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def identity() -> "GammaMap":
        return GammaMap(
            kind="identity",
            fn=lambda u: np.asarray(u, dtype=float),
            d1=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            d2=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        )

    @staticmethod
    def square() -> "GammaMap":
        return GammaMap(
            kind="square",
            fn=lambda u: np.asarray(u, dtype=float) ** 2,
            d1=lambda u: 2.0 * np.asarray(u, dtype=float),
            d2=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
        )


@dataclass(frozen=True)
class VolCoeff:
    """Diffusion coefficient spec for a variance factor.

    kind "power" evaluates v**exponent * scale, "constant" a fixed level.
    """

    kind: str
    exponent: float = 0.5
    scale: float = 1.0
    level: float = 0.0

    @staticmethod
    def power(exponent: float, scale: float = 1.0) -> "VolCoeff":
        if exponent < 0:
            raise InvalidParams("power exponent must be nonnegative")
        return VolCoeff(kind="power", exponent=exponent, scale=scale)

    @staticmethod
    def constant(level: float) -> "VolCoeff":
        return VolCoeff(kind="constant", level=level)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "power":
            return self.scale * np.power(v, self.exponent)
        return np.full_like(v, self.level)

    @property
    def condition_ok(self) -> bool:
        """Admissible for the swap representation: a constant, or a power
        with exponent in [0, 1/2] or equal to 1 (Lipschitz)."""
        return self.kind == "constant" or 0.0 <= self.exponent <= 0.5 or self.exponent == 1.0

    @property
    def vanishes(self) -> bool:
        """Zero at every state: a constant 0 or a power with scale 0."""
        return (self.scale if self.kind == "power" else self.level) == 0.0


@dataclass(frozen=True)
class ModelParams:
    """All model constants plus the correlation decomposition."""

    gamma: float
    eta: float
    alpha: float
    a: float
    epsilon: float
    lambda_impact: float
    gamma_map: GammaMap
    phi: VolCoeff
    theta: VolCoeff
    s0: float
    u0: float
    v0: float
    decomp: CorrelationDecomposition

    def validate(self, require_swap_hedging: bool = False) -> None:
        if not (0.0 <= self.lambda_impact <= 1.0):
            raise InvalidParams("lambda_impact must lie in [0,1]")
        if self.epsilon < 0:
            raise InvalidParams("epsilon must be nonnegative")
        if self.s0 <= 0 or self.u0 <= 0 or self.v0 <= 0:
            raise InvalidParams("initial states s0, u0, v0 must be positive")
        if require_swap_hedging and self.alpha == self.gamma:
            raise InvalidParams(
                "alpha must differ from gamma: equal rates make the swap loading "
                "matrix singular and the market cannot be completed"
            )
        if require_swap_hedging and (self.phi.vanishes or self.theta.vanishes):
            raise InvalidParams(
                "phi and theta must not vanish: a zero factor diffusion makes every "
                "swap loading matrix degenerate and the market cannot be completed"
            )
        if require_swap_hedging and not self.swaps_condition_ok:
            raise InvalidParams(
                "phi and theta must be constants or powers with exponent in [0, 1/2] "
                "or equal to 1: other coefficients are outside the swap representation"
            )

    @property
    def swaps_condition_ok(self) -> bool:
        """Phi and Theta admissible for the swap market representation."""
        return self.phi.condition_ok and self.theta.condition_ok

    @property
    def submartingale_ok(self) -> bool:
        """Sufficient condition for nonnegative depth drift (no-arbitrage harness)."""
        return self.gamma_map.kind == "identity" and self.gamma > 0 and self.eta > 0


@dataclass(frozen=True)
class PathBundle:
    """Simulated grid paths of (S, U, V, Sigma, M) and running realized variance."""

    grid: TimeGrid
    params: ModelParams
    noise: NoiseBlock
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    m: np.ndarray
    rv: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.s.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.s.shape[1]


def simulate_paths(
    params: ModelParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> PathBundle:
    """Simulate the exogenous system on the grid.

    U and V evolve as raw accumulators with coefficients evaluated at the
    truncated state; the bundle stores the truncated values.  S uses the
    exact-log step S_{k+1} = S_k exp(Sigma_k dW1 - Sigma_k^2 dt / 2), a
    discrete-time martingale.  Realized variance accumulates Sigma^2 dt
    with the left-endpoint rule.
    """
    params.validate()
    noise = draw_noise(grid, params.decomp, n_paths, seed)
    dt = grid.dt

    # time-major (n_nodes, n_paths): each step reads and writes whole rows
    s, u, v, rv = (np.empty((grid.n_nodes, n_paths)) for _ in range(4))
    u[0] = params.u0
    v[0] = params.v0
    s[0] = params.s0
    rv[0] = 0.0

    u_raw = np.full(n_paths, params.u0)
    v_raw = np.full(n_paths, params.v0)
    for k in range(grid.n_steps):
        dw1, dw2, dw3 = noise.correlate(*noise.db[:, k, :].T.copy())
        # u[k], v[k] are max(u_raw, 0), max(v_raw, 0): the truncated states
        sig2 = u[k] + v[k]
        sig = np.sqrt(sig2)
        s[k + 1] = s[k] * np.exp(sig * dw1 - 0.5 * sig2 * dt)
        rv[k + 1] = rv[k] + sig2 * dt
        u_raw = u_raw + params.gamma * (u[k] + params.eta) * dt + params.phi(u[k]) * dw2
        v_raw = v_raw + params.alpha * (v[k] + params.a) * dt + params.theta(v[k]) * dw3
        np.maximum(u_raw, 0.0, out=u[k + 1])
        np.maximum(v_raw, 0.0, out=v[k + 1])
    # back to path-major, one array at a time so one extra copy is live
    s = np.ascontiguousarray(s.T)
    u = np.ascontiguousarray(u.T)
    v = np.ascontiguousarray(v.T)
    rv = np.ascontiguousarray(rv.T)

    bad = ~(np.isfinite(s) & np.isfinite(u) & np.isfinite(v) & np.isfinite(rv))
    if bad.any():
        step = int(bad.any(axis=0).argmax())
        raise DegenerateState(f"non-finite state at step {step} on path "
                              f"{int(bad[:, step].argmax())}: the factor dynamics blew up")
    sigma = np.sqrt(u + v)
    m = params.epsilon * params.gamma_map.fn(u)
    return PathBundle(grid=grid, params=params, noise=noise,
                      s=s, u=u, v=v, sigma=sigma, m=m, rv=rv)


def mu_coeff(u_state, params: ModelParams):
    """Drift of the depth process M = epsilon * Gamma(U), evaluated in U."""
    u = np.asarray(u_state, dtype=float)
    g = params.gamma_map
    drift = params.epsilon * g.d1(u) * params.gamma * (u + params.eta)
    ito = 0.5 * params.epsilon * g.d2(u) * params.phi(u) ** 2
    return drift + ito


def zeta_coeff(u_state, params: ModelParams):
    """Depth diffusion weight epsilon * Phi(U)^2 * Gamma'(U), evaluated in U."""
    u = np.asarray(u_state, dtype=float)
    return params.epsilon * params.phi(u) ** 2 * params.gamma_map.d1(u)


def driver_coefficient(u, v, s, params: ModelParams) -> np.ndarray:
    """Quadratic-driver coefficient Lambda = mu / (sigma1^2 * Sigma^2 * S^2)
    at the state arrays (u, v, s), with Sigma^2 = u + v.

    States where sigma1^2 Sigma^2 S^2 is at most 1e-14 (kept off the
    solver's alive paths by its stopping rule) get a zero instead.
    """
    den = params.decomp.sigma1 ** 2 * (u + v) * s ** 2
    good = den > _STATE_FLOOR
    out = np.zeros_like(den)
    out[good] = mu_coeff(u[good], params) / den[good]
    return out


def export_paths_csv(bundle: PathBundle, path) -> None:
    """Write (path, step, t, S, U, V, Sigma, M, RV) rows, one per grid node."""
    write_table(path, ["path", "step", "t", "S", "U", "V", "Sigma", "M", "RV"],
                [*grid_index(bundle.n_paths, bundle.grid.times()),
                 bundle.s, bundle.u, bundle.v, bundle.sigma, bundle.m, bundle.rv])


def with_epsilon(params: ModelParams, epsilon: float) -> ModelParams:
    """Copy of the params with a different illiquidity scale."""
    return replace(params, epsilon=epsilon)
