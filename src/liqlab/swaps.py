"""Variance swap prices and the diffusion-loading matrix for market completion.

A swap on [0, T_i] pays realized variance minus a strike.  Because the
exponential-tilted factors e^{-gamma t}(U + eta) and e^{-alpha t}(V + a)
are martingales, the swap price is affine in them with deterministic
growth factors (e^{c T} - e^{c t}) / c, and the 3x3 matrix of loadings of
(swap1, swap2, stock) on the three independent Brownian drivers is
explicit: the factor sensitivity (e^{c (T - t)} - 1) / c times the factor
diffusion.  Its invertibility (needing alpha != gamma) is what lets a
stock/swap portfolio span all three risk sources; inverting it maps
diffusion exposures back to positions.

Index convention: entries[..., i, j] is the loading of instrument i
(0, 1 = swaps, 2 = stock) on independent driver j.  Rows 0 and 1 have a
zero first column: the swaps do not load on the driver that is exclusive
to the stock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, MaturityPassed, SingularSystem
from .market import ModelParams, PathBundle

_C_ZERO = 1e-10
_DEGENERATE = 1e-14


@dataclass(frozen=True)
class SwapSpec:
    """Variance swap term sheet: maturity (years) and strike (variance units)."""

    maturity: float
    strike: float


def growth_factor(c: float, maturity, t):
    """(e^{c T} - e^{c t}) / c, continued through c = 0 as T - t.

    Near c = 0 a second-order expansion avoids the 0/0 cancellation.
    """
    maturity = np.asarray(maturity, dtype=float)
    t = np.asarray(t, dtype=float)
    if abs(c) < _C_ZERO:
        return (maturity - t) + c * (maturity ** 2 - t ** 2) / 2.0
    return (np.exp(c * maturity) - np.exp(c * t)) / c


def remaining_growth(c: float, maturity, t):
    """(e^{c (T - t)} - 1) / c, continued through c = 0 as T - t.

    This is the swap price sensitivity to its variance factor, equal to
    e^{-c t} * growth_factor(c, T, t); it is what loads the factor
    diffusion in the swap's driver representation.
    """
    maturity = np.asarray(maturity, dtype=float)
    t = np.asarray(t, dtype=float)
    left = maturity - t
    if abs(c) < _C_ZERO:
        return left + c * left ** 2 / 2.0
    return np.expm1(c * left) / c


def tilde_u(t, u, params: ModelParams):
    """Martingale-normalized U factor: e^{-gamma t} (U + eta)."""
    return np.exp(-params.gamma * np.asarray(t, dtype=float)) * (u + params.eta)


def tilde_v(t, v, params: ModelParams):
    """Martingale-normalized V factor: e^{-alpha t} (V + a)."""
    return np.exp(-params.alpha * np.asarray(t, dtype=float)) * (v + params.a)


def swap_price(t, u, v, rv, params: ModelParams, spec: SwapSpec):
    """Unaffected swap price at state (t, U, V, realized variance so far).

    Affine in the tilde factors; reduces to (U0 + V0) T_i - K_i in the
    frozen-variance limit.  Vectorizes over any broadcastable state shape.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t > spec.maturity):
        raise MaturityPassed(f"state time exceeds swap maturity {spec.maturity}")
    remaining = spec.maturity - t
    price = (
        rv
        + tilde_u(t, u, params) * growth_factor(params.gamma, spec.maturity, t)
        - params.eta * remaining
        + tilde_v(t, v, params) * growth_factor(params.alpha, spec.maturity, t)
        - params.a * remaining
        - spec.strike
    )
    return price


def swap_price_paths(bundle: PathBundle, spec: SwapSpec) -> np.ndarray:
    """Swap price at every grid node of every path."""
    t = bundle.grid.times()[None, :]
    return swap_price(t, bundle.u, bundle.v, bundle.rv, bundle.params, spec)


@dataclass(frozen=True)
class PsiMatrix:
    """Instrument-by-driver loadings, possibly batched over paths/nodes.

    entries has shape batch + (3, 3); degenerate flags states where the
    matrix cannot be inverted because a diffusion coefficient vanished.
    """

    entries: np.ndarray
    degenerate: np.ndarray

    def det(self) -> np.ndarray:
        return np.linalg.det(self.entries)


def psi_matrix(
    t,
    u,
    v,
    s,
    params: ModelParams,
    t1: float,
    t2: float,
) -> PsiMatrix:
    """Build the loading matrix at one or many states.

    At alpha == gamma the two swap rows are proportional and the matrix is
    singular.  Such rates are rejected by
    ModelParams.validate(require_swap_hedging=True), and invert_hedge
    raises SingularSystem on the singular swap block.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    batch = np.broadcast(t, u, v, s).shape
    entries = np.zeros(batch + (3, 3))

    phi_u = params.phi(u)
    theta_v = params.theta(v)
    sigma_s = np.sqrt(u + v) * s
    d = params.decomp
    for i, maturity in enumerate((t1, t2)):
        a_g = remaining_growth(params.gamma, maturity, t)
        a_a = remaining_growth(params.alpha, maturity, t)
        entries[..., i, 1] = a_g * d.phi2 * phi_u
        entries[..., i, 2] = a_g * d.phi3 * phi_u + a_a * d.theta3 * theta_v
    entries[..., 2, 0] = d.sigma1 * sigma_s
    entries[..., 2, 1] = d.sigma2 * sigma_s
    entries[..., 2, 2] = d.sigma3 * sigma_s

    degenerate = (np.abs(phi_u) <= _DEGENERATE) | (np.abs(theta_v) <= _DEGENERATE) \
        | (np.abs(sigma_s) <= _DEGENERATE)
    degenerate = np.broadcast_to(degenerate, batch).copy()
    return PsiMatrix(entries=entries, degenerate=degenerate)


def exposure_from_hedge(x, chi1, chi2, psi: PsiMatrix, sigma_s, zeta_u, params: ModelParams):
    """Diffusion exposures Z of a (stock, swap1, swap2) position.

    Z_1 = sigma1 * Sigma * S * X; on the other two drivers the stock
    contributes linearly in X and quadratically (through the depth
    diffusion weight) in X^2, and the swaps contribute their loadings.
    """
    d = params.decomp
    x = np.asarray(x, dtype=float)
    z = np.empty(np.broadcast(x, sigma_s).shape + (3,))
    z[..., 0] = d.sigma1 * sigma_s * x
    phis = (d.phi2, d.phi3)
    for idx, phi_i in zip((1, 2), phis):
        z[..., idx] = (
            d.tri_inv[0, idx] * sigma_s * x
            - phi_i * zeta_u * x ** 2
            + psi.entries[..., 0, idx] * chi1
            + psi.entries[..., 1, idx] * chi2
        )
    return z


def invert_hedge(
    z,
    psi: PsiMatrix,
    sigma_s,
    zeta_u,
    params: ModelParams,
):
    """Recover (X, chi1, chi2) from diffusion exposures Z.

    X comes from the first component alone; the swap positions then solve
    the 2x2 swap block by Cramer's rule.  Vectorizes over batches.  A zero
    sigma1 * Sigma * S raises DegenerateState before a degenerate or
    singular loading matrix raises SingularSystem.
    """
    z = np.asarray(z, dtype=float)
    sigma_s = np.asarray(sigma_s, dtype=float)
    d = params.decomp
    denom = d.sigma1 * sigma_s
    if np.any(np.abs(denom) < _DEGENERATE):
        raise DegenerateState("sigma1 * Sigma * S too small to recover the stock position")
    if np.any(psi.degenerate):
        raise SingularSystem("loading matrix degenerate at some state")
    e = psi.entries
    dets = e[..., 0, 1] * e[..., 1, 2] - e[..., 1, 1] * e[..., 0, 2]
    scale = np.abs(e[..., :2, 1:]).max(axis=(-2, -1)) ** 2 + _DEGENERATE
    if np.any(np.abs(dets) <= 1e-13 * scale):
        raise SingularSystem("swap loading block numerically singular")
    x = z[..., 0] / denom
    r1 = z[..., 1] - d.tri_inv[0, 1] * sigma_s * x + d.phi2 * zeta_u * x ** 2
    r2 = z[..., 2] - d.tri_inv[0, 2] * sigma_s * x + d.phi3 * zeta_u * x ** 2
    chi1 = (r1 * e[..., 1, 2] - e[..., 1, 1] * r2) / dets
    chi2 = (e[..., 0, 1] * r2 - e[..., 0, 2] * r1) / dets
    return x, chi1, chi2
