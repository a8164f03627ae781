"""Tests for the event-graph command-stream simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.events import Command, EventGraph


class TestBasics:
    def test_single_command(self):
        g = EventGraph()
        g.submit("gpu", 2.0, label="k")
        assert g.makespan() == 2.0

    def test_in_order_queue_serialises(self):
        g = EventGraph()
        g.submit("gpu", 1.0)
        g.submit("gpu", 2.0)
        recs = g.simulate()
        assert recs[1].start == 1.0
        assert g.makespan() == 3.0

    def test_different_resources_run_concurrently(self):
        g = EventGraph()
        g.submit("host", 5.0)
        g.submit("gpu", 3.0)
        assert g.makespan() == 5.0

    def test_dependency_delays_start(self):
        g = EventGraph()
        a = g.submit("host", 5.0)
        g.submit("gpu", 1.0, deps=(a,))
        assert g.makespan() == 6.0

    def test_multiple_dependencies(self):
        g = EventGraph()
        a = g.submit("host", 2.0)
        b = g.submit("dma", 4.0)
        g.submit("gpu", 1.0, deps=(a, b))
        assert g.makespan() == 5.0

    def test_forward_dependency_rejected(self):
        g = EventGraph()
        with pytest.raises(ConfigurationError, match="not yet submitted"):
            g.submit("gpu", 1.0, deps=(0,))

    def test_zero_duration_allowed(self):
        g = EventGraph()
        g.submit("gpu", 0.0)
        assert g.makespan() == 0.0

    def test_command_validation(self):
        with pytest.raises(ConfigurationError):
            Command("gpu", -1.0)
        with pytest.raises(ConfigurationError):
            Command("", 1.0)

    def test_resource_busy_accounting(self):
        g = EventGraph()
        g.submit("gpu", 1.0)
        g.submit("gpu", 2.0)
        g.submit("host", 4.0)
        busy = g.resource_busy()
        assert busy == {"gpu": 3.0, "host": 4.0}

    def test_empty_graph(self):
        assert EventGraph().makespan() == 0.0


class TestCanonicalSchedules:
    def test_pipelined_step_matches_pipeline3(self, rng):
        """The event graph reproduces the closed-form three-stage recurrence
        (CPU -> PCIe -> GPU, each resource serial) exactly."""
        for _ in range(5):
            k = int(rng.integers(1, 20))
            h = rng.uniform(0.1, 1.0, k).tolist()
            u = rng.uniform(0.01, 0.5, k).tolist()
            d = rng.uniform(0.1, 1.0, k).tolist()
            cpu = pcie = gpu = 0.0
            for a, b, c in zip(h, u, d):
                cpu += a
                pcie = max(cpu, pcie) + b
                gpu = max(pcie, gpu) + c
            assert EventGraph.pipelined_step(h, u, d).makespan() == gpu

    def test_multi_device_fanout_beats_single(self, rng):
        k = 16
        h = rng.uniform(0.01, 0.02, k).tolist()  # fast host: devices bound
        u = rng.uniform(0.01, 0.02, k).tolist()
        d = rng.uniform(0.5, 1.0, k).tolist()
        one = EventGraph.pipelined_step(h, u, d, n_devices=1).makespan()
        four = EventGraph.pipelined_step(h, u, d, n_devices=4).makespan()
        assert four < one / 2

    def test_multi_device_host_bound_does_not_scale(self, rng):
        k = 16
        h = rng.uniform(0.5, 1.0, k).tolist()  # slow host: devices starve
        u = rng.uniform(0.01, 0.02, k).tolist()
        d = rng.uniform(0.01, 0.02, k).tolist()
        one = EventGraph.pipelined_step(h, u, d, n_devices=1).makespan()
        four = EventGraph.pipelined_step(h, u, d, n_devices=4).makespan()
        assert four > one * 0.95

    def test_pipelined_step_validation(self):
        with pytest.raises(ConfigurationError):
            EventGraph.pipelined_step([1.0], [1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            EventGraph.pipelined_step([1.0], [1.0], [1.0], n_devices=0)
