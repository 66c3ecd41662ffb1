import time

import numpy as np
import pytest

SESSION_START = time.perf_counter()

from strategyshift.params import IntervalDistribution, ModelParams, Thresholds


@pytest.fixture
def reference_params():
    """Unit-intensity, unit-mark process with exponential unit-mean intervals."""
    return ModelParams(
        lambda_a=1.0,
        lambda_b=1.0,
        obs_initial=IntervalDistribution("exponential", 1.0),
        obs_interval=IntervalDistribution("exponential", 1.0),
    )


@pytest.fixture
def unit_thresholds():
    return Thresholds(m=1, n=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
