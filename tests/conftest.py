import pytest

from murbsim.config import Scenario, WorkloadConfig
from murbsim.runtime import Registry, load_catalog
from murbsim.world import World


@pytest.fixture(scope="session")
def demo_catalog():
    specs, overrides = load_catalog()
    return specs, overrides


@pytest.fixture
def registry(demo_catalog):
    specs, overrides = demo_catalog
    return Registry(specs, overrides)


@pytest.fixture
def small_world():
    """A live world with a handful of clients; cheap enough for unit tests."""
    s = Scenario(duration_ms=600_000, seed=11)
    s.workload = WorkloadConfig(clients_per_node=5)
    return World(s)


@pytest.fixture(scope="session")
def baseline_run():
    """Fault-free 500-client run shared by calibration-style tests."""
    s = Scenario(duration_ms=120_000, seed=5)
    w = World(s)
    w.run()
    return w
