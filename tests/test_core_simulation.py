"""Tests for the high-level Simulation driver."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.plans import IParallelPlan, JwParallelPlan, PlanConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError, ReproError, StateError
from repro.nbody.energy import total_energy
from repro.nbody.forces import direct_forces
from repro.nbody.ic import plummer
from repro.nbody.particles import ParticleSet

EPS = 1e-2


@pytest.fixture()
def sim():
    particles = plummer(256, seed=31)
    return Simulation(particles, IParallelPlan(PlanConfig(softening=EPS)), dt=1e-3)


class TestStepping:
    def test_step_advances_time(self, sim):
        sim.step()
        assert sim.time == pytest.approx(1e-3)
        sim.step()
        assert sim.time == pytest.approx(2e-3)

    def test_record_accumulates(self, sim):
        sim.run(3)
        # first step costs two force evaluations (cold start), then one each
        assert sim.record.steps == 3
        assert sim.record.force_passes == 4
        assert sim.record.simulated_seconds > 0
        assert sim.record.interactions == 4 * 256 * 256
        assert sim.record.mean_step_seconds > 0
        # mean is per leapfrog step, not per force pass
        assert sim.record.mean_step_seconds == pytest.approx(
            sim.record.simulated_seconds / 3
        )

    def test_energy_conservation_short_run(self):
        particles = plummer(256, seed=33)
        e0 = total_energy(particles, softening=EPS)
        sim = Simulation(particles, IParallelPlan(PlanConfig(softening=EPS)), dt=1e-3)
        sim.run(20)
        e1 = total_energy(particles, softening=EPS)
        assert abs(e1 - e0) / abs(e0) < 5e-3

    def test_tree_plan_drives_simulation(self):
        particles = plummer(512, seed=34)
        sim = Simulation(particles, JwParallelPlan(PlanConfig(softening=EPS)), dt=1e-3)
        rec = sim.run(2)
        assert rec.steps == 2
        assert rec.force_passes == 3
        assert rec.last_breakdown.plan == "jw"
        assert rec.last_breakdown.n_bodies == 512

    def test_record_memory_does_not_grow_with_the_run(self):
        """The record keeps the last breakdown only: from step 200 to step
        2,000 of an n=64 run, traced memory grows by under 64 KB."""
        sim = Simulation(plummer(64, seed=36), IParallelPlan(PlanConfig(softening=EPS)), dt=1e-4)
        assert sim.record.last_breakdown is None
        tracemalloc.start()
        try:
            sim.run(200)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            sim.run(1800)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sim.record.steps == 2000
        assert grown < 64 * 1024, f"record grew {grown} B over 1,800 steps"

    def test_forces_consistent_with_direct(self):
        particles = plummer(256, seed=35)
        sim = Simulation(particles, IParallelPlan(PlanConfig(softening=EPS)), dt=1e-4)
        sim.step()
        ref = direct_forces(
            particles.positions, particles.masses, softening=EPS, include_self=False
        )
        acc = sim._last_acc
        err = np.linalg.norm(acc - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() < 1e-3


#: Softening small enough that the Kepler pair (separation 1) orbits as
#: an unsoftened binary, yet positive so the plan's self-pair is zero.
KEPLER_EPS = 1e-4
#: Period of the equal-mass circular binary below (2 pi r^1.5 / sqrt(M)).
KEPLER_PERIOD = 2 * np.pi * 0.5 / np.sqrt(0.5)


def _kepler_pair():
    """Equal-mass binary on a circular orbit of separation 1."""
    pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    # each body circles the centre of mass at radius 0.5: v^2 / 0.5 = G m / 1^2
    v = np.sqrt(0.5)
    vel = np.array([[0.0, v, 0.0], [0.0, -v, 0.0]])
    return ParticleSet(pos, vel, np.array([1.0, 1.0]))


def _kepler_sim(particles, dt):
    return Simulation(
        particles, IParallelPlan(PlanConfig(softening=KEPLER_EPS)), dt=dt
    )


class TestKeplerLeapfrog:
    """The fixed-step leapfrog's physics, on a two-body orbit."""

    @staticmethod
    def _orbit_error(n_steps):
        p = _kepler_pair()
        start = p.positions.copy()
        _kepler_sim(p, KEPLER_PERIOD / n_steps).run(n_steps)
        return np.linalg.norm(p.positions - start)

    def test_second_order_convergence(self):
        # halving dt cuts the one-period position error ~4x
        ratio = self._orbit_error(200) / self._orbit_error(400)
        assert 3.0 < ratio < 5.5

    def test_energy_conservation_on_orbit(self):
        p = _kepler_pair()
        e0 = total_energy(p, softening=KEPLER_EPS)
        _kepler_sim(p, 0.01).run(2000)
        e1 = total_energy(p, softening=KEPLER_EPS)
        assert abs(e1 - e0) / abs(e0) < 1e-3

    def test_time_reversibility(self):
        p = _kepler_pair()
        start = p.positions.copy()
        sim = _kepler_sim(p, 0.01)
        sim.run(100)
        p.velocities *= -1.0
        sim.run(100)
        np.testing.assert_allclose(p.positions, start, atol=1e-9)


class TestCallbacks:
    def test_callback_invoked(self, sim):
        seen = []
        sim.run(4, callback=lambda s: seen.append(s.time), callback_every=2)
        assert len(seen) == 2
        assert seen[-1] == pytest.approx(4e-3)

    def test_validation(self, sim):
        with pytest.raises(ConfigurationError):
            sim.run(0)
        with pytest.raises(ConfigurationError):
            sim.run(1, callback_every=0)

    def test_bad_dt(self):
        with pytest.raises(ConfigurationError):
            Simulation(plummer(8, seed=1), IParallelPlan(), dt=0.0)

    def test_empty_record_raises_state_error(self, sim):
        # an empty record is a *state* problem, not a configuration one
        with pytest.raises(StateError):
            _ = sim.record.mean_step_seconds
        assert not issubclass(StateError, ConfigurationError)
        assert issubclass(StateError, ReproError)
