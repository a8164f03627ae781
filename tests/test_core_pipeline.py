"""Unit tests for the host/device pipeline: the PTPM time axis.

The jw plan's overlapped pass is :meth:`EventGraph.pipelined_step`, one
host -> DMA -> GPU chain per walk batch.  With an instant DMA stage it is
the classic two-stage pipeline

    host_done[i]   = host_done[i-1] + host[i]
    device_done[i] = max(host_done[i], device_done[i-1]) + device[i]

whose total approaches ``startup + max(sum(host), sum(device))`` with many
batches, while one batch is the serial sum of its stages.
"""

import pytest

from repro import obs
from repro.core.plans import JwParallelPlan, PlanConfig
from repro.errors import ConfigurationError
from repro.gpu.events import EventGraph
from repro.nbody.ic import plummer
from tests.conftest import two_stage_recurrence


def two_stage(host, device):
    """Makespan of ``host`` batches feeding ``device`` batches, no DMA cost."""
    return EventGraph.pipelined_step(host, [0.0] * len(host), device).makespan()


def hidden_seconds(g):
    """Stage time hidden by overlap: busy time beyond the makespan."""
    return sum(g.resource_busy().values()) - g.makespan()


class TestSerial:
    def test_total_is_sum(self):
        g = EventGraph.pipelined_step([2.0], [0.0], [3.0])
        assert g.makespan() == 5.0
        assert hidden_seconds(g) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            EventGraph.pipelined_step([1.0], [0.0], [-1.0])


class TestTwoStage:
    def test_single_batch_is_serial(self):
        assert two_stage([2.0], [3.0]) == 5.0

    def test_many_batches_approach_max(self):
        n = 100
        # total -> max(2,3) + one host batch of startup
        assert two_stage([2.0 / n] * n, [3.0 / n] * n) == pytest.approx(3.0 + 2.0 / n)

    def test_device_bound(self):
        assert two_stage([0.1] * 10, [1.0] * 10) == pytest.approx(0.1 + 10.0)

    def test_host_bound(self):
        assert two_stage([1.0] * 10, [0.1] * 10) == pytest.approx(10.0 + 0.1)

    def test_hidden_seconds(self):
        g = EventGraph.pipelined_step([1.0] * 10, [0.0] * 10, [1.0] * 10)
        hidden = hidden_seconds(g)
        assert hidden > 0
        assert 0.0 < hidden / 10.0 <= 1.0  # overlap efficiency

    def test_never_better_than_max_nor_worse_than_sum(self, rng):
        h = rng.uniform(0.1, 1.0, 20).tolist()
        d = rng.uniform(0.1, 1.0, 20).tolist()
        total = two_stage(h, d)
        assert total >= max(sum(h), sum(d)) - 1e-12
        assert total <= sum(h) + sum(d) + 1e-12

    def test_empty(self):
        assert two_stage([], []) == 0.0

    def test_rejects_mismatch(self):
        with pytest.raises(ConfigurationError, match="batch count"):
            EventGraph.pipelined_step([1.0], [0.0], [1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            two_stage([-1.0], [1.0])


class TestThreeStage:
    def test_bounded_by_slowest_stage(self, rng):
        c = rng.uniform(0.1, 1.0, 30).tolist()
        x = rng.uniform(0.1, 1.0, 30).tolist()
        g = rng.uniform(0.1, 1.0, 30).tolist()
        total = EventGraph.pipelined_step(c, x, g).makespan()
        assert total >= max(sum(c), sum(x), sum(g)) - 1e-12
        assert total <= sum(c) + sum(x) + sum(g) + 1e-12

    def test_steady_state(self):
        n = 200
        g = EventGraph.pipelined_step([1.0 / n] * n, [0.5 / n] * n, [2.0 / n] * n)
        assert g.makespan() == pytest.approx(2.0 + 1.5 / n, rel=1e-6)

    def test_degenerate_zero_stage_matches_two_stage(self, rng):
        h = rng.uniform(0.1, 1.0, 10).tolist()
        d = rng.uniform(0.1, 1.0, 10).tolist()
        assert two_stage(h, d) == two_stage_recurrence(h, d)

    def test_host_seconds_aggregates_feed_stages(self):
        busy = EventGraph.pipelined_step([1.0], [2.0], [3.0]).resource_busy()
        assert busy["host"] + busy["dma0"] == 3.0  # the feed: walks + upload
        assert busy["gpu0"] == 3.0

    def test_empty(self):
        assert EventGraph.pipelined_step([], [], []).makespan() == 0.0

    def test_rejects_mismatch(self):
        with pytest.raises(ConfigurationError):
            EventGraph.pipelined_step([1.0], [1.0], [1.0, 2.0])


class TestSplitBatches:
    def test_split_sums(self):
        """jw's batches split each stage evenly and sum to its total."""
        plan = JwParallelPlan(PlanConfig(softening=1e-2), pipeline_batches=4)
        particles = plummer(2048, seed=11)
        walks = plan.prepare(particles.positions, particles.masses)
        with obs.capture() as (tr, _):
            b = plan.breakdown_from_walks(walks)
        lanes = {}
        for s in tr.spans:
            if s.kind == "sim" and s.track.startswith("pipe."):
                lanes.setdefault(s.track, []).append(s.sim_seconds)
        list_upload = plan._list_transfers(walks).total_time(plan.config.device)
        assert {k: len(v) for k, v in lanes.items()} == {
            "pipe.host": 4, "pipe.dma0": 4, "pipe.gpu0": 4,
        }
        assert sum(lanes["pipe.host"]) == pytest.approx(b.host_seconds)
        assert sum(lanes["pipe.dma0"]) == pytest.approx(list_upload)
        assert sum(lanes["pipe.gpu0"]) == pytest.approx(b.kernel_seconds)
        assert lanes["pipe.gpu0"] == pytest.approx([b.kernel_seconds / 4] * 4)
