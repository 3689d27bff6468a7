import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qetlab import CurlGaussian

settings.register_profile(
    "qetlab",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("qetlab")


@pytest.fixture(scope="session")
def canonical_field():
    return CurlGaussian(1.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
