"""Tests for the four PTPM plans: functional correctness and cost structure."""

import numpy as np
import pytest

from repro.core.plans import (
    IParallelPlan,
    JParallelPlan,
    JwParallelPlan,
    PlanConfig,
    WParallelPlan,
    get_plan,
)
from repro.errors import ConfigurationError
from repro.nbody.forces import direct_forces
from repro.nbody.ic import plummer
from repro.tree.bh_force import rms_relative_error

EPS = 1e-2
ALL_PLAN_CLASSES = [IParallelPlan, JParallelPlan, WParallelPlan, JwParallelPlan]


@pytest.fixture(scope="module")
def bodies():
    p = plummer(1024, seed=21)
    return p.positions, p.masses


@pytest.fixture(scope="module")
def reference(bodies):
    pos, m = bodies
    return direct_forces(pos, m, softening=EPS, include_self=False)


@pytest.fixture(scope="module")
def cfg():
    return PlanConfig(softening=EPS)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("plan_cls", [IParallelPlan, JParallelPlan])
    def test_pp_plans_match_direct_to_float32(self, plan_cls, bodies, reference, cfg):
        pos, m = bodies
        acc = plan_cls(cfg).accelerations(pos, m)
        assert rms_relative_error(acc, reference) < 1e-4

    @pytest.mark.parametrize("plan_cls", [WParallelPlan, JwParallelPlan])
    def test_tree_plans_match_direct_to_bh_accuracy(self, plan_cls, bodies, reference, cfg):
        pos, m = bodies
        acc = plan_cls(cfg).accelerations(pos, m)
        assert rms_relative_error(acc, reference) < 0.01

    def test_pp_plans_agree_with_each_other(self, bodies, cfg):
        pos, m = bodies
        a_i = IParallelPlan(cfg).accelerations(pos, m)
        a_j = JParallelPlan(cfg).accelerations(pos, m)
        assert rms_relative_error(a_j, a_i) < 1e-5

    def test_tree_plans_agree_closely(self, bodies, cfg):
        """w and jw share walks; only float32 summation order differs."""
        pos, m = bodies
        a_w = WParallelPlan(cfg).accelerations(pos, m)
        a_jw = JwParallelPlan(cfg).accelerations(pos, m)
        assert rms_relative_error(a_jw, a_w) < 1e-4

    @pytest.mark.parametrize("plan_cls", [IParallelPlan, JParallelPlan])
    def test_wg_size_does_not_change_pp_physics(self, plan_cls, bodies, cfg):
        pos, m = bodies
        a1 = plan_cls(PlanConfig(softening=EPS, wg_size=64)).accelerations(pos, m)
        a2 = plan_cls(PlanConfig(softening=EPS, wg_size=256)).accelerations(pos, m)
        assert rms_relative_error(a1, a2) < 1e-4

    @pytest.mark.parametrize("plan_cls", [WParallelPlan, JwParallelPlan])
    def test_wg_size_keeps_tree_plans_accurate(self, plan_cls, bodies, reference):
        # wg_size changes the walk grouping (hence the BH approximation),
        # but accuracy vs direct summation must stay at BH level
        pos, m = bodies
        for p in (64, 256):
            acc = plan_cls(PlanConfig(softening=EPS, wg_size=p)).accelerations(pos, m)
            assert rms_relative_error(acc, reference) < 0.01

    @pytest.mark.parametrize("plan_cls", ALL_PLAN_CLASSES)
    def test_compute_step_consistent(self, plan_cls, bodies, cfg):
        pos, m = bodies
        plan = plan_cls(cfg)
        acc, step = plan.compute_step(pos, m)
        acc2 = plan.accelerations(pos, m)
        np.testing.assert_allclose(acc, acc2, rtol=1e-12)
        assert step.interactions > 0


class TestCostStructure:
    @pytest.mark.parametrize("plan_cls", ALL_PLAN_CLASSES)
    def test_breakdown_fields(self, plan_cls, bodies, cfg):
        pos, m = bodies
        b = plan_cls(cfg).step_breakdown(pos, m)
        assert b.kernel_seconds > 0
        assert b.transfer_seconds > 0
        assert b.total_seconds >= b.kernel_seconds
        assert b.issued_interactions >= b.interactions
        assert b.n_bodies == len(m)

    def test_pp_interactions_are_n_squared(self, bodies, cfg):
        pos, m = bodies
        n = len(m)
        for cls in (IParallelPlan, JParallelPlan):
            assert cls(cfg).step_breakdown(pos, m).interactions == n * n

    def test_tree_interactions_below_n_squared_at_scale(self, cfg):
        p = plummer(8192, seed=3)
        b = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        assert b.interactions < 8192 * 8192

    def test_pp_plans_have_no_host_work(self, bodies, cfg):
        pos, m = bodies
        assert IParallelPlan(cfg).step_breakdown(pos, m).host_seconds == 0.0

    def test_tree_plans_have_host_work(self, bodies, cfg):
        pos, m = bodies
        assert WParallelPlan(cfg).step_breakdown(pos, m).host_seconds > 0.0

    def test_j_has_more_workgroups_than_i_at_small_n(self, bodies, cfg):
        pos, m = bodies
        bi = IParallelPlan(cfg).step_breakdown(pos, m)
        bj = JParallelPlan(cfg).step_breakdown(pos, m)
        assert bj.meta["n_workgroups"] > bi.meta["n_workgroups"]
        assert bj.meta["split_factor"] > 1

    def test_j_split_shrinks_at_large_n(self, cfg):
        p = plummer(16384, seed=4)
        plan = JParallelPlan(cfg)
        assert plan.split_factor(16384) < plan.split_factor(1024)

    def test_w_lane_utilization_below_jw(self, bodies, cfg):
        pos, m = bodies
        uw = WParallelPlan(cfg).step_breakdown(pos, m).meta["lane_utilization"]
        ujw = JwParallelPlan(cfg).step_breakdown(pos, m).meta["lane_utilization"]
        assert uw < 0.9
        assert ujw > 0.95

    def test_jw_overlap_reduces_total(self, bodies, cfg):
        pos, m = bodies
        on = JwParallelPlan(cfg, overlap=True).step_breakdown(pos, m)
        off = JwParallelPlan(cfg, overlap=False).step_breakdown(pos, m)
        assert on.total_seconds < off.total_seconds

    def test_jw_without_overlap_pays_for_the_list_upload(self, bodies, cfg):
        """With nothing to hide it behind, the interaction-list upload is
        charged as a transfer, as in the w plan."""
        pos, m = bodies
        plan = JwParallelPlan(cfg, overlap=False)
        walks = plan.prepare(pos, m)
        b = plan.breakdown_from_walks(walks)
        transfers = plan._transfers(walks).total_time(cfg.device)
        assert b.total_seconds == (
            b.host_seconds + b.kernel_seconds + transfers + b.serial_seconds
        )
        assert b.transfer_seconds == transfers
        assert b.pipeline_total is None


class TestPricedOnce:
    """An all-pairs pass is priced once per shape, and every pass gets
    its own copy of the breakdown."""

    @staticmethod
    def _pass(name, cfg):
        p = plummer(300, seed=5)
        plan = get_plan(name, cfg)
        if name == "block-i":
            active = np.arange(0, 300, 3)

            def run():
                return plan.compute_step(p.positions, p.masses, active)[1]

            def fresh():
                return plan.inner._price(active.size, 300, "block_i_forces")
        else:

            def run():
                return plan.compute_step(p.positions, p.masses)[1]

            def fresh():
                if name == "i":
                    return plan._price(300, 300, "i_parallel_forces")
                return plan._price(300)

        return plan, run, fresh

    @pytest.mark.parametrize("name", ["i", "j", "block-i"])
    def test_passes_get_equal_but_distinct_breakdowns(self, name, cfg):
        plan, run, _ = self._pass(name, cfg)
        first, second = run(), run()
        assert first == second and first is not second
        assert first.meta is not second.meta
        first.meta["written"] = True
        first.plan = "elsewhere"
        third = run()
        assert "written" not in third.meta and third.plan == plan.name
        assert third == second

    @pytest.mark.parametrize("name", ["i", "j", "block-i"])
    def test_simulated_seconds_equal_a_fresh_launch(self, name, cfg):
        _, run, fresh = self._pass(name, cfg)
        run()
        memoized, built = run(), fresh()
        assert memoized.total_seconds == built.total_seconds
        assert memoized.kernels == built.kernels
        assert memoized.interactions == built.interactions

    def test_the_memo_is_bounded(self, cfg):
        from repro.core.plans import base

        plan = IParallelPlan(cfg)
        for rows in range(1, base.PRICED_SHAPES + 10):
            plan._breakdown(rows, 64, "block_i_forces")
        assert len(base._priced) <= base.PRICED_SHAPES


class TestPaperShapes:
    """The headline qualitative claims, checked at moderate N."""

    def test_jw_fastest_total_at_4096(self, cfg):
        p = plummer(4096, seed=5)
        totals = {
            cls.name: cls(cfg).step_breakdown(p.positions, p.masses).total_seconds
            for cls in ALL_PLAN_CLASSES
        }
        assert totals["jw"] == min(totals.values())

    def test_jw_beats_w_by_paper_factor(self, cfg):
        p = plummer(16384, seed=5)
        tw = WParallelPlan(cfg).step_breakdown(p.positions, p.masses).total_seconds
        tjw = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses).total_seconds
        assert 1.5 <= tw / tjw <= 5.0

    def test_i_parallel_occupancy_starved_at_small_n(self, cfg):
        p = plummer(1024, seed=5)
        b = IParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        assert b.kernel_gflops() < 100  # far from the ~300 sustained

    def test_jw_sustains_high_gflops_at_small_n(self, cfg):
        p = plummer(1024, seed=5)
        b = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        assert b.kernel_gflops() > 150

    def test_get_plan_builds_each_paper_plan(self, cfg):
        for name, cls in zip(("i", "j", "w", "jw"), ALL_PLAN_CLASSES):
            assert isinstance(get_plan(name, cfg), cls)
        with pytest.raises(ConfigurationError, match="unknown plan"):
            get_plan("nope")


class TestValidation:
    def test_rejects_bad_bodies(self, cfg):
        plan = IParallelPlan(cfg)
        with pytest.raises(ConfigurationError):
            plan.accelerations(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ConfigurationError):
            plan.accelerations(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ConfigurationError):
            plan.accelerations(np.zeros((0, 3)), np.ones(0))

    def test_config_validation(self):
        with pytest.raises(Exception):
            PlanConfig(wg_size=512)  # exceeds device max
        with pytest.raises(ConfigurationError):
            PlanConfig(softening=-1.0)
        with pytest.raises(ConfigurationError, match="softening"):
            PlanConfig(softening=0.0)  # the self-pair would be 0 * inf = NaN
        with pytest.raises(ConfigurationError):
            PlanConfig(theta=0.0)
        with pytest.raises(ConfigurationError):
            PlanConfig(leaf_size=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("softening", float("nan")),
            ("softening", float("inf")),
            ("theta", float("nan")),
            ("theta", float("inf")),
            ("G", float("nan")),
            ("G", float("-inf")),
            ("step_eta", float("nan")),
            ("step_eta", float("inf")),
        ],
    )
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            PlanConfig(**{field: value})

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_simulation_rejects_non_finite_dt(self, dt):
        from repro.core.simulation import Simulation

        with pytest.raises(ConfigurationError, match="dt must be finite"):
            Simulation(plummer(8, seed=1), "i", dt=dt)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pipeline_batches": 0},
            {"pipeline_batches": 2.5},
            {"pipeline_batches": True},
            {"schedule": "magic"},
        ],
        ids=["batches-0", "batches-2.5", "batches-True", "schedule-magic"],
    )
    def test_jw_rejects_bad_batches(self, cfg, kwargs):
        with pytest.raises(ConfigurationError):
            JwParallelPlan(cfg, **kwargs)
