"""Integration tests: full stacks working together end-to-end.

These cross module boundaries on purpose: workload generator -> tree ->
walks -> simulated device -> integrator -> diagnostics, and the PTPM
model's qualitative predictions against the measured simulator behaviour.
"""

import numpy as np
import pytest

from repro.core.plans import (
    IParallelPlan,
    JParallelPlan,
    JwParallelPlan,
    PlanConfig,
    WParallelPlan,
)
from repro.core.ptpm import describe
from repro.core.simulation import Simulation
from repro.nbody.energy import angular_momentum, momentum, total_energy
from repro.nbody.forces import direct_forces
from repro.nbody.ic import plummer, two_clusters
from repro.tree.bh_force import rms_relative_error

EPS = 1e-2


class TestFullSimulations:
    @pytest.mark.parametrize("plan_cls", [IParallelPlan, JwParallelPlan])
    def test_cluster_evolution_conserves_invariants(self, plan_cls):
        particles = plummer(512, seed=51)
        e0 = total_energy(particles, softening=EPS)
        p0 = momentum(particles)
        sim = Simulation(particles, plan_cls(PlanConfig(softening=EPS)), dt=1e-3)
        sim.run(30)
        e1 = total_energy(particles, softening=EPS)
        p1 = momentum(particles)
        assert abs(e1 - e0) / abs(e0) < 0.02
        # BH + float32 forces break exact momentum conservation mildly
        assert np.linalg.norm(p1 - p0) < 5e-3

    def test_two_cluster_merger_runs(self):
        particles = two_clusters(600, seed=52)
        l0 = angular_momentum(particles)
        sim = Simulation(particles, JwParallelPlan(PlanConfig(softening=EPS)), dt=2e-3)
        sim.run(20)
        l1 = angular_momentum(particles)
        np.testing.assert_allclose(l1, l0, atol=0.05 * np.linalg.norm(l0) + 1e-3)
        assert sim.record.simulated_seconds > 0

    def test_plans_produce_same_trajectory_within_method_error(self):
        """Evolving with PP vs BH forces stays close over a short run."""
        pa = plummer(512, seed=54)
        pb = pa.copy()
        Simulation(pa, IParallelPlan(PlanConfig(softening=EPS)), dt=1e-3).run(10)
        Simulation(pb, JwParallelPlan(PlanConfig(softening=EPS)), dt=1e-3).run(10)
        drift = np.linalg.norm(pa.positions - pb.positions, axis=1)
        spread = np.linalg.norm(pa.positions, axis=1).mean()
        assert drift.max() / spread < 0.05


class TestPtpmPredictionsMatchMeasurement:
    """The PTPM descriptors' qualitative predictions, verified against the
    simulated device — the model must be falsifiable, and it is here."""

    @pytest.fixture(scope="class")
    def measurements(self):
        cfg = PlanConfig(softening=EPS)
        out = {}
        for n in (1024, 16384):
            p = plummer(n, seed=55)
            out[n] = {
                cls.name: cls(cfg).step_breakdown(p.positions, p.masses)
                for cls in (IParallelPlan, JParallelPlan, WParallelPlan, JwParallelPlan)
            }
        return out

    def test_occupancy_starvation_prediction(self, measurements):
        small = measurements[1024]
        large = measurements[16384]
        for name in ("i", "j", "w", "jw"):
            starved = describe(name).predicts_occupancy_starvation_at_small_n
            small_frac = small[name].kernel_gflops() / large[name].kernel_gflops()
            if starved:
                assert small_frac < 0.35, f"{name} should be starved at small N"
            else:
                assert small_frac > 0.2

    def test_lane_underutilization_prediction(self, measurements):
        for name in ("w", "jw"):
            util = measurements[16384][name].meta["lane_utilization"]
            if describe(name).predicts_lane_underutilization:
                assert util < 0.9
            else:
                assert util > 0.95

    def test_serial_host_prediction(self, measurements):
        for name in ("w", "jw"):
            b = measurements[16384][name]
            if describe(name).predicts_serial_host_bottleneck:
                assert not b.overlapped
            else:
                assert b.overlapped

    def test_reduction_prediction(self, measurements):
        bj = measurements[1024]["j"]
        assert describe("j").predicts_reduction_overhead
        assert len(bj.kernels) == 2  # force + reduce kernels


class TestDeviceScalingIntegration:
    def test_double_device_speeds_up_saturated_kernel(self):
        from repro.gpu.device import RADEON_HD_5850, scaled_device
        import dataclasses

        # N must be large enough that the doubled device is still saturated
        # (256 work-groups over 36 CUs keeps full residency)
        p = plummer(65536, seed=56)
        cfg1 = PlanConfig(softening=EPS)
        big = scaled_device(RADEON_HD_5850, compute_units=36)
        cfg2 = dataclasses.replace(cfg1, device=big)
        t1 = IParallelPlan(cfg1).step_breakdown(p.positions, p.masses).kernel_seconds
        t2 = IParallelPlan(cfg2).step_breakdown(p.positions, p.masses).kernel_seconds
        assert t1 / t2 == pytest.approx(2.0, rel=0.2)

    def test_functional_unaffected_by_device(self):
        from repro.gpu.device import RADEON_HD_5850, scaled_device
        import dataclasses

        p = plummer(256, seed=57)
        cfg1 = PlanConfig(softening=EPS)
        cfg2 = dataclasses.replace(cfg1, device=scaled_device(RADEON_HD_5850, compute_units=4))
        a1 = JwParallelPlan(cfg1).accelerations(p.positions, p.masses)
        a2 = JwParallelPlan(cfg2).accelerations(p.positions, p.masses)
        assert rms_relative_error(a2, a1) < 1e-6


class TestAccuracyIntegration:
    def test_all_plans_vs_direct_on_anisotropic_workload(self):
        from repro.nbody.ic import cold_disc

        p = cold_disc(512, seed=58)
        ref = direct_forces(p.positions, p.masses, softening=EPS, include_self=False)
        cfg = PlanConfig(softening=EPS)
        for cls, tol in [
            (IParallelPlan, 1e-4),
            (JParallelPlan, 1e-4),
            (WParallelPlan, 0.02),
            (JwParallelPlan, 0.02),
        ]:
            acc = cls(cfg).accelerations(p.positions, p.masses)
            assert rms_relative_error(acc, ref) < tol, cls.name
