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
Only dB is stored; the market forms dW = L^-1 dB one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Imported with the package, not on first use inside draw_noise, where
# numpy.random's module state would land above the noise array and pin the
# freed heap.
from numpy.random import PCG64, Generator, default_rng
from numpy.random.bit_generator import ISeedSequence

from .errors import NotPositiveDefinite, NotSymmetric, InvalidParams, ZeroPaths

_SYM_TOL = 1e-12
_PIVOT_TOL = 1e-12

# exchange matrix: conjugation turns a lower Cholesky factor into an upper one
_EXCH = np.eye(3)[::-1]

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF
# paths hashed per block: bounds the hash arrays at any n_paths
_SEED_BLOCK = 65_536


@dataclass(frozen=True)
class CorrelationDecomposition:
    """Linv = L^-1 (R = Linv Linv^T, R^-1 = L^T L) of a correlation R."""

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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with optional swap maturities beyond it."""

    horizon: float
    n_steps: int
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidParams("n_steps must be at least 1")
        if not self.dt > 0:
            raise InvalidParams("horizon / n_steps must be positive")
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
    """Independent increments dB, from which dW = L^-1 dB is formed on use.

    db is (n_paths, n_steps, 3); increments have variance dt per
    component.  Bit-identical for a fixed (seed, grid, n_paths) and the
    noise of path i does not change when n_paths grows.
    """

    db: np.ndarray
    tri_inv: np.ndarray     # L^-1 of the correlation decomposition

    def correlate(self, b1, b2, b3):
        """(dW1, dW2, dW3) = L^-1 (dB1, dB2, dB3), summed in the order of
        np.einsum("pkj,ij->pki"), whose bits dW keeps."""
        t = self.tri_inv
        return (t[0, 0] * b1 + t[0, 2] * b3 + t[0, 1] * b2,
                t[1, 2] * b3 + t[1, 1] * b2,
                t[2, 2] * b3)

    @property
    def dw(self) -> np.ndarray:
        """Correlated increments, (n_paths, n_steps, 3), built on each read."""
        return np.stack(self.correlate(*np.moveaxis(self.db, -1, 0)), axis=-1)


def decompose_correlation(corr: np.ndarray) -> CorrelationDecomposition:
    """Factor a 3x3 correlation matrix as R = L^-1 L^-T with L^-1 upper triangular.

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
    return CorrelationDecomposition(tri_inv=tri_inv)


def draw_noise(
    grid: TimeGrid,
    decomp: CorrelationDecomposition,
    n_paths: int,
    seed: int,
) -> NoiseBlock:
    """Draw Gaussian increments for every path and step.

    Path i draws from the stream of default_rng((seed, i)), so runs are
    reproducible and each path's noise is stable as n_paths changes.  The
    SeedSequence words are hashed in bulk (_pcg_seeds) and numpy seeds one
    PCG64 per path from them; a check against default_rng on the last path
    makes a change to numpy's seeding fail loudly instead of moving every
    stream.
    """
    if n_paths == 0:
        raise ZeroPaths("n_paths must be at least 1")
    if n_paths < 0:
        raise InvalidParams("n_paths must be nonnegative")
    if seed < 0:
        raise InvalidParams("seed must be nonnegative")
    sqrt_dt = np.sqrt(grid.dt)
    db = np.empty((n_paths, grid.n_steps, 3))
    for i, words in enumerate(_pcg_seeds(seed, n_paths)):
        Generator(PCG64(_SeedWords(words))).standard_normal(out=db[i])
    last = default_rng((seed, n_paths - 1)).standard_normal((grid.n_steps, 3))
    if last.tobytes() != db[-1].tobytes():
        raise RuntimeError("bulk seeding no longer reproduces numpy's "
                           "default_rng((seed, i)) streams")
    db *= sqrt_dt
    return NoiseBlock(db=db, tri_inv=decomp.tri_inv)


class _SeedWords(ISeedSequence):
    """Seed words already generated, handed to PCG64 as its seed sequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg_seeds(seed: int, n_paths: int):
    """Yield SeedSequence((seed, i)).generate_state(4, uint64), i < n_paths.

    SeedSequence hashes the 32-bit words of seed and of i into a pool of
    four words and expands the pool into eight output words.  The hash is
    uint32 arithmetic on whole blocks of paths.  Each yielded row is
    contiguous, as PCG64 reads the four words from the array's buffer.
    """
    seed_words = [seed & _M32]
    while seed := seed >> 32:
        seed_words.append(seed & _M32)
    for start in range(0, n_paths, _SEED_BLOCK):
        paths = np.arange(start, min(start + _SEED_BLOCK, n_paths), dtype=np.uint32)
        entropy = [np.full(paths.shape, w, np.uint32) for w in seed_words] + [paths]
        with np.errstate(over="ignore"):
            hashmix = _hashmix(_INIT_A, _MULT_A)
            pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(paths))
                    for j in range(_POOL_SIZE)]
            for src in range(_POOL_SIZE):
                for dst in range(_POOL_SIZE):
                    if src != dst:
                        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
            for word in entropy[_POOL_SIZE:]:
                for dst in range(_POOL_SIZE):
                    pool[dst] = _mix(pool[dst], hashmix(word))
            expand = _hashmix(_INIT_B, _MULT_B)
            words = [expand(pool[j % _POOL_SIZE]) for j in range(8)]
        del pool, entropy
        # generate_state(4, uint64) reads the eight words as little-endian pairs
        state = np.stack(words, axis=1).astype("<u4", copy=False).view("<u8")
        del words
        yield from state.astype(np.uint64, copy=False)


def _hashmix(hash_const: int, mult: int):
    """SeedSequence's hashmix with its running constant, on uint32 arrays."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _M32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> np.uint32(16)
