import numpy as np
import numpy.testing as npt
import pytest

from liqlab import TimeGrid, decompose_correlation, draw_noise
from liqlab import noise
from liqlab.errors import InvalidParams, NotPositiveDefinite, NotSymmetric, ZeroPaths

from conftest import corr, traced_peak


class TestDecomposeCorrelation:
    def test_identity_matrix(self):
        d = decompose_correlation(np.eye(3))
        npt.assert_array_equal(d.tri_inv, np.eye(3))
        assert d.sigma1 == d.phi2 == d.theta3 == 1.0
        assert d.sigma2 == d.sigma3 == d.phi3 == 0.0

    def test_reconstructs_input(self):
        r = corr(rho12=0.5)
        d = decompose_correlation(r)
        npt.assert_allclose(d.tri_inv @ d.tri_inv.T, r, atol=1e-10)
        tri = np.linalg.inv(d.tri_inv)
        npt.assert_allclose(tri.T @ tri, np.linalg.inv(r), atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_correlation_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 6))
        cov = a @ a.T
        scale = np.sqrt(np.diag(cov))
        r = cov / np.outer(scale, scale)
        r = (r + r.T) / 2
        np.fill_diagonal(r, 1.0)
        d = decompose_correlation(r)
        npt.assert_allclose(d.tri_inv @ d.tri_inv.T, r, atol=1e-10)
        assert np.allclose(np.tril(np.linalg.inv(d.tri_inv), -1), 0.0)
        assert (np.tril(d.tri_inv, -1) == 0.0).all()
        assert d.sigma1 > 0

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            decompose_correlation(corr(rho12=1.0))

    def test_asymmetric_rejected(self):
        r = corr(rho12=0.2)
        r[0, 1] = 0.3
        with pytest.raises(NotSymmetric):
            decompose_correlation(r)

    def test_non_unit_diagonal_rejected(self):
        r = np.eye(3) * 1.5
        with pytest.raises(InvalidParams):
            decompose_correlation(r)

    def test_zero_pattern_constants(self):
        d = decompose_correlation(corr(rho12=0.4, rho13=0.1, rho23=-0.2))
        assert d.tri_inv[1, 0] == d.tri_inv[2, 0] == d.tri_inv[2, 1] == 0.0


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(horizon=2.0, n_steps=8, t1=2.5, t2=3.0)
        assert grid.dt == 0.25
        npt.assert_allclose(grid.times(), np.linspace(0, 2, 9))

    def test_maturities_must_exceed_horizon(self):
        with pytest.raises(InvalidParams):
            TimeGrid(horizon=1.0, n_steps=4, t1=0.5, t2=2.0)

    def test_maturities_must_differ(self):
        with pytest.raises(InvalidParams):
            TimeGrid(horizon=1.0, n_steps=4, t1=2.0, t2=2.0)

    def test_bad_shape(self):
        with pytest.raises(InvalidParams):
            TimeGrid(horizon=-1.0, n_steps=4)
        with pytest.raises(InvalidParams):
            TimeGrid(horizon=1.0, n_steps=0)


class TestDrawNoise:
    def test_same_seed_identical(self):
        grid = TimeGrid(horizon=1.0, n_steps=16)
        d = decompose_correlation(corr(rho12=0.3))
        a = draw_noise(grid, d, 32, seed=11)
        b = draw_noise(grid, d, 32, seed=11)
        npt.assert_array_equal(a.db, b.db)
        npt.assert_array_equal(a.dw, b.dw)

    def test_identity_correlation_gives_equal_blocks(self):
        grid = TimeGrid(horizon=1.0, n_steps=16)
        d = decompose_correlation(np.eye(3))
        block = draw_noise(grid, d, 8, seed=2)
        npt.assert_array_equal(block.db, block.dw)

    def test_zero_paths_rejected(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        d = decompose_correlation(np.eye(3))
        with pytest.raises(ZeroPaths):
            draw_noise(grid, d, 0, seed=1)

    def test_sample_correlation_matches_target(self):
        # 1e5 increments: estimator std about 0.0024, so +-0.02 is a wide gate
        grid = TimeGrid(horizon=1.0, n_steps=500)
        d = decompose_correlation(corr(rho12=0.5))
        block = draw_noise(grid, d, 200, seed=5)
        flat = block.dw.reshape(-1, 3)
        sample = np.corrcoef(flat[:, 0], flat[:, 1])[0, 1]
        assert abs(sample - 0.5) < 0.02

    def test_path_noise_stable_as_n_paths_grows(self):
        grid = TimeGrid(horizon=1.0, n_steps=8)
        d = decompose_correlation(corr(rho13=0.2))
        small = draw_noise(grid, d, 10, seed=9)
        big = draw_noise(grid, d, 40, seed=9)
        npt.assert_array_equal(small.db, big.db[:10])

    def test_increment_variance_scales_with_dt(self):
        d = decompose_correlation(np.eye(3))
        grid = TimeGrid(horizon=2.0, n_steps=8)  # dt = 0.25
        block = draw_noise(grid, d, 4000, seed=3)
        var = block.db.var()
        assert abs(var - 0.25) < 0.01

    def test_covariance_converges_to_correlation(self):
        # empirical cov of dW / dt approaches R at the 1/sqrt(n) rate
        r = corr(rho12=0.4, rho13=-0.3, rho23=0.1)
        d = decompose_correlation(r)
        grid = TimeGrid(horizon=1.0, n_steps=64)
        errs = []
        for n_paths in (250, 4000):
            block = draw_noise(grid, d, n_paths, seed=17)
            flat = block.dw.reshape(-1, 3)
            emp = flat.T @ flat / flat.shape[0] / grid.dt
            errs.append(np.abs(emp - r).max())
        assert errs[1] < errs[0]
        assert errs[1] < 4.0 / np.sqrt(4000 * 64)

    def test_negative_seed_rejected(self):
        grid = TimeGrid(horizon=1.0, n_steps=4)
        with pytest.raises(InvalidParams):
            draw_noise(grid, decompose_correlation(np.eye(3)), 4, seed=-1)

    def test_peak_is_the_two_arrays(self):
        # dw is not stored, and the bulk seeding keeps no per-path array: at
        # the peak, db is live next to one seeding block's hash and seed
        # words, about 0.05 x db at 64 steps
        grid = TimeGrid(horizon=1.0, n_steps=64)
        d = decompose_correlation(corr(rho12=0.3))
        block, peak = traced_peak(lambda: draw_noise(grid, d, 2000, seed=909))
        assert peak <= 1.10 * block.db.nbytes

    @pytest.mark.parametrize("rhos", [(-0.3, -0.2, 0.3), (0.9, -0.5, -0.4), (0.5, 0.5, 0.5)])
    def test_dw_is_the_einsum_contraction(self, rhos):
        # dw is formed from db on use, with the bits of the contraction it replaced
        d = decompose_correlation(corr(*rhos))
        block = draw_noise(TimeGrid(horizon=1.0, n_steps=16), d, 500, seed=303)
        want = np.einsum("pkj,ij->pki", block.db, d.tri_inv)
        assert block.dw.tobytes() == want.tobytes()
        for k in (0, 15):
            cols = block.correlate(*block.db[:, k, :].T.copy())
            assert np.stack(cols, axis=-1).tobytes() == want[:, k, :].tobytes()


def _stream(seed, i, n_steps, dt):
    return np.random.default_rng((seed, i)).standard_normal((n_steps, 3)) * np.sqrt(dt)


class TestStreamContract:
    """Path i of draw_noise is default_rng((seed, i)) scaled by sqrt(dt), bitwise."""

    @pytest.mark.parametrize("seed", [0, 5, 303, 909, 2**32 - 1, 2**32, 2**64 + 3])
    def test_db_is_the_default_rng_stream(self, seed):
        n_paths = 70_000
        assert n_paths > noise._SEED_BLOCK    # crosses a seeding block boundary
        grid = TimeGrid(horizon=1.0, n_steps=1)
        block = draw_noise(grid, decompose_correlation(np.eye(3)), n_paths, seed)
        sample = np.random.default_rng(seed).choice(n_paths, 12, replace=False)
        edge = noise._SEED_BLOCK
        for i in sorted({0, 1, edge - 1, edge, n_paths - 1, *sample.tolist()}):
            expect = _stream(seed, i, 1, grid.dt)
            assert block.db[i].tobytes() == expect.tobytes(), f"path {i}"

    @pytest.mark.parametrize("seed", [2**96 + 5, 2**130 + 7, 10**40])
    def test_seeds_longer_than_the_pool(self, seed):
        # five or more entropy words: the words past the pool are mixed in last
        grid = TimeGrid(horizon=1.0, n_steps=4)
        block = draw_noise(grid, decompose_correlation(np.eye(3)), 3, seed)
        for i in range(3):
            assert block.db[i].tobytes() == _stream(seed, i, 4, grid.dt).tobytes()

    def test_seeding_drift_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(noise, "_MIX_L", noise._MIX_L + 2)
        grid = TimeGrid(horizon=1.0, n_steps=2)
        with pytest.raises(RuntimeError, match="default_rng"):
            draw_noise(grid, decompose_correlation(np.eye(3)), 3, seed=1)
