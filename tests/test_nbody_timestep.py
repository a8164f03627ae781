"""Tests for the acceleration time-step criterion."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nbody.timestep import acceleration_timestep


class TestCriterion:
    def test_formula(self):
        acc = np.array([[3.0, 4.0, 0.0]])  # |a| = 5
        dt = acceleration_timestep(acc, softening=0.05, eta=0.1)
        assert dt[0] == pytest.approx(0.1 * np.sqrt(0.05 / 5.0))

    def test_zero_acceleration_unconstrained(self):
        dt = acceleration_timestep(np.zeros((1, 3)), softening=0.05)
        assert np.isinf(dt[0])

    def test_stronger_force_smaller_step(self):
        acc = np.array([[1.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        dt = acceleration_timestep(acc, softening=0.05)
        assert dt[1] < dt[0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            acceleration_timestep(np.ones((1, 3)), softening=0.0)
        with pytest.raises(ConfigurationError):
            acceleration_timestep(np.ones((1, 3)), softening=0.1, eta=0.0)
