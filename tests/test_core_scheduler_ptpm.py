"""Unit tests for walk scheduling policies and the PTPM descriptors."""

import numpy as np
import pytest

from repro.bench.experiments import ablation_queue
from repro.core.ptpm import (
    PLAN_NAMES,
    Mapping,
    comparison_table,
    describe,
)
from repro.errors import ConfigurationError
from repro.gpu.timing import dispatch
from repro.gpu.trace import trace_costs

#: The queue ablation's policies: the dispatcher's two, plus the dynamic
#: queue fed longest-first.
POLICIES = ("static", "dynamic", "dynamic-lpt")


def schedule_walk_costs(costs, n_workers, policy):
    """The timeline of one queue-ablation policy."""
    if policy == "dynamic-lpt":
        return trace_costs(np.sort(costs)[::-1], n_workers, policy="dynamic")
    return trace_costs(costs, n_workers, policy=policy)


class TestScheduleWalks:
    def test_policies_exist(self):
        outcomes = ablation_queue(n=1024).data["outcomes"]
        assert set(outcomes) == set(POLICIES)

    def test_uniform_work_all_equal(self):
        costs = np.ones(36)
        for p in POLICIES:
            tr = schedule_walk_costs(costs, 18, p)
            assert tr.makespan == pytest.approx(2.0)
            assert tr.utilization == pytest.approx(1.0)

    def test_skewed_work_ordering(self, rng):
        costs = rng.pareto(1.5, 500) + 0.1
        st = schedule_walk_costs(costs, 18, "static")
        dy = schedule_walk_costs(costs, 18, "dynamic")
        lpt = schedule_walk_costs(costs, 18, "dynamic-lpt")
        assert lpt.makespan <= dy.makespan + 1e-9
        assert dy.makespan <= st.makespan + 1e-9

    def test_outcome_accounting(self, rng):
        costs = rng.uniform(1, 3, 100)
        tr = schedule_walk_costs(costs, 10, "dynamic")
        assert tr.worker_busy().sum() == pytest.approx(costs.sum())
        assert len(tr.intervals) == 100
        assert 0.0 <= 1.0 - tr.utilization < 1.0

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            dispatch(np.ones(3), 2, "roulette")

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            dispatch(np.array([-1.0]), 2, "dynamic")


class TestPtpmDescriptors:
    def test_all_plans_described(self):
        for name in PLAN_NAMES:
            d = describe(name)
            assert d.name == name

    def test_methods(self):
        assert describe("i").method == "pp"
        assert describe("j").method == "pp"
        assert describe("w").method == "bh"
        assert describe("jw").method == "bh"

    def test_i_parallel_predictions(self):
        d = describe("i")
        assert d.predicts_occupancy_starvation_at_small_n
        assert not d.predicts_reduction_overhead
        assert not d.predicts_serial_host_bottleneck

    def test_j_parallel_predictions(self):
        d = describe("j")
        assert not d.predicts_occupancy_starvation_at_small_n
        assert d.predicts_reduction_overhead

    def test_w_parallel_predictions(self):
        d = describe("w")
        assert d.predicts_lane_underutilization
        assert d.predicts_serial_host_bottleneck
        assert not d.predicts_reduction_overhead

    def test_jw_parallel_predictions(self):
        d = describe("jw")
        assert not d.predicts_lane_underutilization
        assert not d.predicts_serial_host_bottleneck
        assert d.predicts_reduction_overhead
        assert d.dynamic_queue
        assert d.host_device_overlap

    def test_unknown_plan(self):
        with pytest.raises(ConfigurationError):
            describe("z")

    def test_comparison_table_shape(self):
        table = comparison_table()
        assert [r["plan"] for r in table] == list(PLAN_NAMES)
        assert all({"plan", "method", "i", "j", "walk", "overlap", "queue"} <= set(r) for r in table)

    def test_mappings_enum_values(self):
        assert Mapping.BLOCK.value == "block"
        assert Mapping.BLOCK_THREAD.value == "block+thread"
