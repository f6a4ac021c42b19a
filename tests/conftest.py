import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from liqlab import ScenarioConfig

# Property tests draw the same examples on every run, keep no example
# database, and give each example a fixed time budget.
settings.register_profile("liqlab", derandomize=True, database=None, deadline=1000)
settings.load_profile("liqlab")


def pytest_configure(config):
    # hypothesis's other caches go to a temporary directory, not the checkout
    home = tempfile.TemporaryDirectory(prefix="liqlab-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def default_config():
    return ScenarioConfig()


@pytest.fixture
def default_params(default_config):
    return default_config.model_params()


@pytest.fixture
def default_grid(default_config):
    return default_config.time_grid()


def override(cfg: ScenarioConfig, **dotted):
    """Copy of a config with `section__key=value` overrides applied."""
    out = cfg.copy()
    for dotted_key, value in dotted.items():
        section, key = dotted_key.split("__")
        out.values[(section, key)] = value
    return out


@pytest.fixture
def mild_config(default_config):
    # gentle drifts: keeps Euler/rectangle bias far below Monte Carlo noise
    return override(
        default_config,
        model__gamma=0.2, model__eta=0.05, model__alpha=0.0, model__a=0.1,
        model__epsilon=1e-3,
    )


def corr(rho12=0.0, rho13=0.0, rho23=0.0):
    r = np.eye(3)
    r[0, 1] = r[1, 0] = rho12
    r[0, 2] = r[2, 0] = rho13
    r[1, 2] = r[2, 1] = rho23
    return r


def traced_peak(fn):
    """fn() and the peak of traced allocations above the level at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak
