"""Unit tests for the energy/momentum diagnostics."""

import numpy as np
import pytest

from repro.nbody.energy import (
    angular_momentum,
    kinetic_energy,
    momentum,
    potential_energy,
    total_energy,
    virial_ratio,
)
from repro.nbody.particles import ParticleSet


def _two_body():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    vel = np.array([[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]])
    return ParticleSet(pos, vel, np.array([1.0, 1.0]))


class TestKinetic:
    def test_two_body_value(self):
        assert kinetic_energy(_two_body()) == pytest.approx(0.25)

    def test_at_rest(self):
        p = ParticleSet.zeros(5)
        assert kinetic_energy(p) == 0.0

    def test_mass_weighting(self):
        pos = np.zeros((1, 3))
        vel = np.array([[2.0, 0.0, 0.0]])
        p = ParticleSet(pos, vel, np.array([3.0]))
        assert kinetic_energy(p) == pytest.approx(6.0)


class TestPotential:
    def test_two_body_value(self):
        assert potential_energy(_two_body()) == pytest.approx(-1.0)

    def test_blocking_invariance(self, plummer_small):
        u1 = potential_energy(plummer_small, block=13)
        u2 = potential_energy(plummer_small, block=10**6)
        assert u1 == pytest.approx(u2, rel=1e-12)

    def test_softening_raises_potential(self):
        hard = potential_energy(_two_body(), softening=0.0)
        soft = potential_energy(_two_body(), softening=0.5)
        assert soft > hard  # less negative

    def test_g_scaling(self):
        assert potential_energy(_two_body(), G=2.0) == pytest.approx(-2.0)

    def test_total_energy_is_sum(self):
        p = _two_body()
        assert total_energy(p) == pytest.approx(
            kinetic_energy(p) + potential_energy(p)
        )


class TestMomenta:
    def test_momentum_zero_in_com_frame(self, plummer_small):
        np.testing.assert_allclose(momentum(plummer_small), 0.0, atol=1e-12)

    def test_momentum_value(self):
        p = _two_body()
        np.testing.assert_allclose(momentum(p), 0.0, atol=1e-15)

    def test_angular_momentum_circular_orbit(self):
        pos = np.array([[1.0, 0.0, 0.0]])
        vel = np.array([[0.0, 2.0, 0.0]])
        p = ParticleSet(pos, vel, np.array([3.0]))
        np.testing.assert_allclose(angular_momentum(p), [0.0, 0.0, 6.0])


class TestVirial:
    def test_exact_equilibrium(self):
        # K = 0.5, U = -1 -> -2K/U = 1
        assert virial_ratio(_two_body()) == pytest.approx(0.5)

    def test_zero_potential_raises(self):
        # one isolated body has no potential energy
        p = ParticleSet(np.zeros((1, 3)), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ValueError, match="virial"):
            virial_ratio(p)
