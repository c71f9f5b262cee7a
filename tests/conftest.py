"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """The test's own generator, seeded alike for every test, so a test
    draws the same inputs whether it runs alone or in the full suite."""
    return np.random.default_rng(2024)
