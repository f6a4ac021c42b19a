"""Correlated Brownian increments and the triangular correlation decomposition.

The model is driven by a 3-d Brownian motion W with instantaneous
correlation matrix R.  Internally everything is simulated from an
independent 3-d Brownian motion B, with W recovered through the upper
triangular matrix L satisfying R^-1 = L^T L, i.e. W = L^-1 B.  The named
entries of L^-1,

    [ sigma1 sigma2 sigma3 ]
    [   0    phi2   phi3   ]
    [   0    0      theta3 ]

are the loadings of (W1, W2, W3) on the independent components and are
used throughout swap pricing and hedge recovery.  The zero pattern
(theta1 = theta2 = phi1 = 0) is a consequence of upper-triangularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Imported here, not on numpy's lazy first use inside draw_noise, where the
# module's state would land above the noise array and pin the freed heap.
from numpy.random import default_rng

# numpy checks its caller with backtrace() on the first arithmetic on a
# large temporary, and backtrace() loads libgcc_s.  Doing that here, before
# any path array exists, keeps the loader's long-lived blocks below the
# arrays, where they cannot pin freed heap.
_ = -np.empty(1 << 15)      # 256 KiB: numpy's smallest elidable temporary
del _

from .errors import NotPositiveDefinite, NotSymmetric, InvalidParams, ZeroPaths

_SYM_TOL = 1e-12
_PIVOT_TOL = 1e-12

# exchange matrix: conjugation turns a lower Cholesky factor into an upper one
_EXCH = np.eye(3)[::-1]


@dataclass(frozen=True)
class CorrelationDecomposition:
    """R together with L (R^-1 = L^T L) and Linv = L^-1 (R = Linv Linv^T)."""

    corr: np.ndarray
    tri: np.ndarray      # L, upper triangular
    tri_inv: np.ndarray  # L^-1, upper triangular

    @property
    def sigma1(self) -> float:
        return float(self.tri_inv[0, 0])

    @property
    def sigma2(self) -> float:
        return float(self.tri_inv[0, 1])

    @property
    def sigma3(self) -> float:
        return float(self.tri_inv[0, 2])

    @property
    def phi2(self) -> float:
        return float(self.tri_inv[1, 1])

    @property
    def phi3(self) -> float:
        return float(self.tri_inv[1, 2])

    @property
    def theta3(self) -> float:
        return float(self.tri_inv[2, 2])

    # fixed by the triangular convention
    phi1 = 0.0
    theta1 = 0.0
    theta2 = 0.0

    def vol_u_loadings(self) -> np.ndarray:
        """(0, phi2, phi3): loadings of W2."""
        return self.tri_inv[1].copy()

    def vol_v_loadings(self) -> np.ndarray:
        """(0, 0, theta3): loadings of W3."""
        return self.tri_inv[2].copy()


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with optional swap maturities beyond it."""

    horizon: float
    n_steps: int
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        if not self.horizon > 0:
            raise InvalidParams("horizon must be positive")
        if self.n_steps < 1:
            raise InvalidParams("n_steps must be at least 1")
        for name, ti in (("t1", self.t1), ("t2", self.t2)):
            if ti is not None and ti <= self.horizon:
                raise InvalidParams(f"swap maturity {name} must exceed the horizon")
        if self.t1 is not None and self.t2 is not None and self.t1 == self.t2:
            raise InvalidParams("swap maturities must differ")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_nodes)

    def require_maturities(self) -> tuple[float, float]:
        if self.t1 is None or self.t2 is None:
            raise InvalidParams("grid lacks swap maturities t1/t2")
        return self.t1, self.t2


@dataclass(frozen=True)
class NoiseBlock:
    """Independent increments dB and correlated increments dW = L^-1 dB.

    Arrays are (n_paths, n_steps, 3); increments have variance dt per
    component.  Bit-identical for a fixed (seed, grid, n_paths) and the
    noise of path i does not change when n_paths grows.
    """

    db: np.ndarray
    dw: np.ndarray
    dt: float
    seed: int

    @property
    def n_paths(self) -> int:
        return self.db.shape[0]

    @property
    def n_steps(self) -> int:
        return self.db.shape[1]


def decompose_correlation(corr: np.ndarray) -> CorrelationDecomposition:
    """Factor a 3x3 correlation matrix into the triangular pair (L, L^-1).

    Raises NotSymmetric / NotPositiveDefinite / InvalidParams when the
    input is not a valid correlation matrix.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (3, 3):
        raise InvalidParams("correlation matrix must be 3x3")
    if np.abs(corr - corr.T).max() > _SYM_TOL:
        raise NotSymmetric("correlation matrix is not symmetric")
    if np.abs(np.diag(corr) - 1.0).max() > _SYM_TOL:
        raise InvalidParams("correlation matrix must have unit diagonal")
    flipped = _EXCH @ corr @ _EXCH
    try:
        lower = np.linalg.cholesky(flipped)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("correlation matrix is not positive definite") from exc
    if np.diag(lower).min() <= _PIVOT_TOL:
        raise NotPositiveDefinite(
            f"Cholesky pivot below tolerance {_PIVOT_TOL:g}"
        )
    tri_inv = _EXCH @ lower @ _EXCH          # upper triangular, R = tri_inv tri_inv^T
    tri = np.linalg.inv(tri_inv)             # upper triangular, R^-1 = tri^T tri
    return CorrelationDecomposition(corr=corr, tri=tri, tri_inv=tri_inv)


def draw_noise(
    grid: TimeGrid,
    decomp: CorrelationDecomposition,
    n_paths: int,
    seed: int,
) -> NoiseBlock:
    """Draw Gaussian increments for every path and step.

    Each path gets its own counter-based stream keyed by (seed, path index)
    so runs are reproducible and individual paths are stable when n_paths
    changes.
    """
    if n_paths == 0:
        raise ZeroPaths("n_paths must be at least 1")
    if n_paths < 0:
        raise InvalidParams("n_paths must be nonnegative")
    sqrt_dt = np.sqrt(grid.dt)
    db = np.empty((n_paths, grid.n_steps, 3))
    for i in range(n_paths):
        rng = default_rng((seed, i))
        db[i] = rng.standard_normal((grid.n_steps, 3))
    db *= sqrt_dt
    dw = np.einsum("pkj,ij->pki", db, decomp.tri_inv)
    return NoiseBlock(db=db, dw=dw, dt=grid.dt, seed=seed)
