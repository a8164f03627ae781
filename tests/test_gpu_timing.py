"""Unit tests for the timing engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import RADEON_HD_5850
from repro.gpu.kernel import tile_loop_work
from repro.gpu.launch import KernelLaunch, WorkGroups
from repro.gpu.timing import dispatch, time_kernel, workgroup_cycles

DEV = RADEON_HD_5850


def schedule(costs, n_workers, policy="dynamic"):
    """``(makespan, per-worker busy time)`` of dispatching ``costs``."""
    costs = np.asarray(costs, dtype=np.float64)
    workers, starts = dispatch(costs, n_workers, policy)
    busy = np.bincount(workers, weights=costs, minlength=n_workers)
    return float((starts + costs).max(initial=0.0)), busy


def _launch(n_wgs, interactions_each=256 * 1024, wg_size=256):
    work = tile_loop_work(
        active_threads=np.full(n_wgs, wg_size),
        n_sources=interactions_each // wg_size,
        wg_size=wg_size,
        wavefront_size=64,
    )
    return KernelLaunch("k", wg_size, work)


def _work(**kw):
    return WorkGroups(**{"interactions": [0], "issued_interactions": [0], **kw})


class TestSchedulers:
    def test_greedy_balances(self):
        makespan, busy = schedule(np.ones(100), 10)
        assert makespan == pytest.approx(10.0)
        np.testing.assert_allclose(busy, 10.0)

    def test_greedy_handles_skew(self):
        costs = np.array([100.0] + [1.0] * 99)
        makespan, _ = schedule(costs, 10)
        assert makespan == pytest.approx(100.0)  # lower bound = largest item

    def test_round_robin_suffers_skew(self):
        # all heavy items land on the same worker under round-robin
        costs = np.array(([10.0] + [1.0] * 9) * 10)
        ms_rr, _ = schedule(costs, 10, "static")
        ms_gr, _ = schedule(costs, 10)
        assert ms_rr > ms_gr

    def test_greedy_beats_round_robin_on_skewed_work(self, rng):
        # not a universal guarantee (greedy FIFO can lose on adversarial
        # inputs), but on heavy-tailed walk-like work it should win
        costs = rng.pareto(1.5, 500) + 0.1
        ms_gr, _ = schedule(costs, 18)
        ms_rr, _ = schedule(costs, 18, "static")
        assert ms_gr <= ms_rr + 1e-12

    def test_makespan_lower_bounds(self, rng):
        costs = rng.uniform(0.5, 2.0, 64)
        ms, busy = schedule(costs, 18)
        assert ms >= costs.sum() / 18 - 1e-12
        assert ms >= costs.max() - 1e-12
        assert busy.sum() == pytest.approx(costs.sum())

    def test_empty_costs(self):
        for policy in ("dynamic", "static"):
            workers, starts = dispatch(np.array([]), 4, policy)
            assert workers.size == starts.size == 0
            assert schedule(np.array([]), 4, policy)[0] == 0.0

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            dispatch(np.ones(3), 0, "dynamic")
        with pytest.raises(ConfigurationError):
            dispatch(np.ones(3), 0, "static")


class TestWorkgroupCycles:
    def test_compute_bound_workgroup(self):
        wg = tile_loop_work(active_threads=[256], n_sources=4096, wg_size=256, wavefront_size=64)
        cycles = workgroup_cycles(DEV, wg, 1.0)
        compute = wg.issued_interactions / DEV.interactions_per_cycle_per_cu
        assert (cycles >= compute).all()  # plus barriers and dispatch

    def test_latency_efficiency_scales_compute(self):
        wg = tile_loop_work(active_threads=[256], n_sources=4096, wg_size=256, wavefront_size=64)
        fast = workgroup_cycles(DEV, wg, 1.0)
        slow = workgroup_cycles(DEV, wg, 0.5)
        assert (slow > fast).all()

    def test_memory_bound_workgroup(self):
        wg = _work(active_threads=[256], global_bytes=[10**6])
        cycles = workgroup_cycles(DEV, wg, 1.0)
        assert cycles[0] >= 10**6 / DEV.global_bytes_per_cycle_per_cu

    def test_rejects_bad_efficiency(self):
        wg = _work(active_threads=[1])
        with pytest.raises(ConfigurationError):
            workgroup_cycles(DEV, wg, 0.0)
        with pytest.raises(ConfigurationError):
            workgroup_cycles(DEV, wg, 1.5)


class TestTimeKernel:
    def test_seconds_positive_and_reasonable(self):
        t = time_kernel(DEV, _launch(64))
        assert t.seconds > 0
        # 64 WGs x 256k interactions at ~15e9/s -> ~1.1 ms
        assert 0.5e-3 < t.seconds < 5e-3

    def test_launch_overhead_included_once(self):
        with_oh = time_kernel(DEV, _launch(4))
        without = time_kernel(DEV, _launch(4), include_launch_overhead=False)
        assert with_oh.seconds - without.seconds == pytest.approx(
            DEV.kernel_launch_overhead_s
        )

    def test_more_workgroups_better_throughput(self):
        """Small launches waste CUs: GFLOPS should rise toward saturation."""
        def gflops(n_wgs):
            t = time_kernel(DEV, _launch(n_wgs))
            return 20 * t.total_interactions / t.seconds / 1e9

        g4, g18, g180 = gflops(4), gflops(18), gflops(180)
        assert g4 < g18 < g180

    def test_saturated_launch_near_sustained_rate(self):
        t = time_kernel(DEV, _launch(1800), include_launch_overhead=False)
        rate = t.total_issued_interactions / t.seconds
        assert rate == pytest.approx(DEV.sustained_interaction_rate, rel=0.1)

    def test_static_schedule_slower_on_skew(self):
        n_src = np.where(np.arange(90) % 18 == 0, 4096, 256)
        work = tile_loop_work(active_threads=np.full(90, 256), n_sources=n_src,
                              wg_size=256, wavefront_size=64)
        kl = KernelLaunch("k", 256, work)
        t_hw = time_kernel(DEV, kl, schedule="hardware")
        t_st = time_kernel(DEV, kl, schedule="static")
        assert t_st.seconds >= t_hw.seconds

    def test_busy_fraction_bounded(self):
        t = time_kernel(DEV, _launch(100))
        assert 0.0 < t.cu_busy_fraction <= 1.0

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ConfigurationError):
            time_kernel(DEV, _launch(2), schedule="magic")
