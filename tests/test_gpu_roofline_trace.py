"""Tests for execution traces of kernel launches."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import RADEON_HD_5850
from repro.gpu.kernel import tile_loop_work
from repro.gpu.launch import KernelLaunch
from repro.gpu.trace import trace_costs, trace_launch
from repro.gpu.timing import time_kernel

DEV = RADEON_HD_5850


def _force_launch(n_wgs=32):
    work = tile_loop_work(active_threads=np.full(n_wgs, 256), n_sources=4096,
                          wg_size=256, wavefront_size=64)
    return KernelLaunch("force", 256, work)


class TestTraceCosts:
    def test_dynamic_intervals_tile_workers(self):
        tr = trace_costs(np.ones(8), 4, policy="dynamic")
        assert tr.makespan == pytest.approx(2.0)
        assert tr.utilization == pytest.approx(1.0)
        assert len(tr.intervals) == 8

    def test_static_imbalance_visible(self):
        costs = np.array([10.0, 1.0] * 8)  # heavy items all hit worker 0
        tr_static = trace_costs(costs, 2, policy="static")
        tr_dyn = trace_costs(costs, 2, policy="dynamic")
        assert tr_static.makespan > tr_dyn.makespan
        assert tr_static.utilization < tr_dyn.utilization

    def test_intervals_non_overlapping_per_worker(self):
        rngc = np.random.default_rng(3).uniform(0.5, 2.0, 50)
        tr = trace_costs(rngc, 7, policy="dynamic")
        for w in range(7):
            ivs = sorted(
                (iv for iv in tr.intervals if iv.worker == w), key=lambda x: x.start
            )
            for a, b in zip(ivs, ivs[1:]):
                assert b.start >= a.end - 1e-12

    def test_labels(self):
        tr = trace_costs(np.ones(2), 2, labels=["a", "b"])
        assert {iv.label for iv in tr.intervals} == {"a", "b"}

    def test_gantt_renders(self):
        tr = trace_costs(np.ones(6), 3)
        out = tr.gantt(width=40)
        assert "CU00" in out and "CU02" in out
        assert "utilization" in out

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trace_costs(np.ones(2), 0)
        with pytest.raises(ConfigurationError):
            trace_costs(np.array([-1.0]), 2)
        with pytest.raises(ConfigurationError):
            trace_costs(np.ones(2), 2, labels=["only-one"])
        with pytest.raises(ConfigurationError):
            trace_costs(np.ones(2), 2, policy="psychic")
        with pytest.raises(ConfigurationError):
            trace_costs(np.ones(2), 2).gantt(width=5)


class TestTraceLaunch:
    def test_makespan_matches_timing_engine(self):
        launch = _force_launch(40)
        tr = trace_launch(DEV, launch)
        t = time_kernel(DEV, launch, include_launch_overhead=False)
        assert tr.makespan == pytest.approx(t.makespan_cycles, rel=1e-9)

    def test_static_schedule(self):
        launch = _force_launch(40)
        tr = trace_launch(DEV, launch, schedule="static")
        t = time_kernel(DEV, launch, schedule="static", include_launch_overhead=False)
        assert tr.makespan == pytest.approx(t.makespan_cycles, rel=1e-9)

    def test_workgroup_labels_preserved(self):
        tr = trace_launch(DEV, _force_launch(4))
        assert {iv.label for iv in tr.intervals} == {"wg0", "wg1", "wg2", "wg3"}

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ConfigurationError):
            trace_launch(DEV, _force_launch(2), schedule="psychic")
