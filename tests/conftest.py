"""Shared fixtures. Session-scoped datasets are expensive (Monte Carlo share
computation), so everything that can be reused across files lives here."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rpchoice import SimConfig, enumerate_cycles, simulate_dataset
from rpchoice import data as data_module

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def headline_dataset():
    """d=100, n=30 reference design used by the replication checks."""
    return simulate_dataset(SimConfig(d=100, n=30, seed=1))


@pytest.fixture(scope="session")
def cycles30():
    return enumerate_cycles(30, (2, 3))


@pytest.fixture(scope="session")
def d500_dataset():
    """d=500 design for the convergence-in-k diagnostic."""
    return simulate_dataset(SimConfig(d=500, n=30, seed=3))


@pytest.fixture()
def forget_last_load(monkeypatch):
    """Nothing is remembered by load_csv when the test starts, so its first
    load of a file parses it, whatever an earlier test loaded."""
    monkeypatch.setattr(data_module, "_last_load", None)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
