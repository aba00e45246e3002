"""Fixtures for the resilience layer and the chaos suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.resilience.engine import ResilienceConfig


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """Injection seed: CI sweeps a matrix via ``REPRO_CHAOS_SEED``."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(scope="session")
def chaos_sample() -> tuple[np.ndarray, np.ndarray]:
    """A fixed (x, y) sample big enough for several row blocks."""
    rng = np.random.default_rng(20170529)
    x = rng.uniform(0.0, 10.0, 200)
    y = np.sin(x) + rng.normal(0.0, 0.3, 200)
    return x, y


@pytest.fixture(scope="session")
def chaos_grid() -> np.ndarray:
    return np.linspace(0.2, 3.0, 25)


@pytest.fixture
def fast_config() -> ResilienceConfig:
    """Generous retries, zero real sleeping — chaos tests run in ms."""
    return ResilienceConfig(
        max_retries=4,
        sleep=lambda _seconds: None,
    )
