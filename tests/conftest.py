import pytest
from hypothesis import HealthCheck, settings

from curvelog import IntegratorConfig, PoleSet, Section

# derandomized, so that tier-1 draws the same examples on every run and a
# latent defect cannot fail it by chance; cases found by exploration are
# kept as @example
settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def ps01():
    return PoleSet.of("0,1")


@pytest.fixture
def std01(ps01):
    return Section.standard(ps01)


@pytest.fixture
def tight():
    return IntegratorConfig(rtol=1e-12, atol=1e-14)
