"""Property-based tests for the leapfrog and plan-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import IParallelPlan, JParallelPlan, JwParallelPlan, PlanConfig, WParallelPlan
from repro.core.simulation import Simulation
from repro.nbody.energy import total_energy
from repro.nbody.forces import direct_forces
from repro.nbody.ic import plummer

EPS = 5e-2


def _leapfrog(particles, dt):
    """The fixed-step leapfrog under all-pairs forces."""
    return Simulation(particles, IParallelPlan(PlanConfig(softening=EPS)), dt=dt)


class TestIntegratorProperties:
    @given(
        st.integers(min_value=8, max_value=64),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=1e-4, max_value=5e-3),
    )
    @settings(max_examples=15, deadline=None)
    def test_leapfrog_energy_bounded(self, n, seed, dt):
        p = plummer(n, seed=seed)
        e0 = total_energy(p, softening=EPS)
        _leapfrog(p, dt).run(20)
        e1 = total_energy(p, softening=EPS)
        assert abs(e1 - e0) / abs(e0) < 0.05

    @given(
        st.integers(min_value=8, max_value=48),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_leapfrog_reversibility(self, n, seed):
        p = plummer(n, seed=seed)
        start = p.positions.copy()
        sim = _leapfrog(p, 1e-3)
        sim.run(15)
        p.velocities *= -1.0
        sim.run(15)
        np.testing.assert_allclose(p.positions, start, atol=1e-8)


class TestPlanProperties:
    @given(
        st.integers(min_value=64, max_value=512),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([IParallelPlan, JParallelPlan, WParallelPlan, JwParallelPlan]),
    )
    @settings(max_examples=12, deadline=None)
    def test_plan_forces_track_direct(self, n, seed, plan_cls):
        p = plummer(n, seed=seed)
        cfg = PlanConfig(softening=EPS)
        acc = plan_cls(cfg).accelerations(p.positions, p.masses)
        ref = direct_forces(p.positions, p.masses, softening=EPS, include_self=False)
        num = np.linalg.norm(acc - ref, axis=1)
        den = np.linalg.norm(ref, axis=1)
        mask = den > 1e-9
        tol = 1e-3 if plan_cls.method == "pp" else 0.1
        assert (num[mask] / den[mask]).max() < tol

    @given(
        st.integers(min_value=64, max_value=512),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([IParallelPlan, JParallelPlan, WParallelPlan, JwParallelPlan]),
    )
    @settings(max_examples=12, deadline=None)
    def test_breakdown_invariants(self, n, seed, plan_cls):
        p = plummer(n, seed=seed)
        b = plan_cls(PlanConfig(softening=EPS)).step_breakdown(p.positions, p.masses)
        assert b.total_seconds > 0
        assert b.kernel_seconds > 0
        assert b.issued_interactions >= b.interactions > 0
        assert b.total_seconds >= b.kernel_seconds * (0.999 if b.overlapped else 1.0)
        # time must be at least the work divided by the device's best rate
        dev = PlanConfig().device
        assert b.kernel_seconds >= b.issued_interactions / dev.sustained_interaction_rate * 0.99
