"""Tests for the plan registry and the keyword-only constructors.

The contracts under test:

1. the four PTPM plans self-register by name; ``get_plan`` splits
   PlanConfig-field keywords from constructor keywords; ``resolve_plan``
   accepts names and instances uniformly;
2. ``register`` guards duplicate names and non-Plan classes, and a
   registered custom plan is addressable everywhere names are accepted
   (Simulation, JobSpec, resume);
3. ``Simulation`` / ``RunSession`` take everything after their first
   two arguments by keyword only.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.core.plans import (
    IParallelPlan,
    JwParallelPlan,
    Plan,
    PlanConfig,
    WParallelPlan,
    available_plans,
    get_plan,
    plan_by_name,
    resolve_plan,
)
from repro.core.plans.registry import register, unregister
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.nbody.ic import plummer
from repro.runtime import RunSession


class TestRegistry:
    def test_builtin_plans_registered(self):
        assert available_plans() == ("block-i", "block-jw", "i", "j", "jw", "w")

    def test_get_plan_by_name(self):
        assert isinstance(get_plan("jw"), JwParallelPlan)
        assert isinstance(get_plan("i"), IParallelPlan)

    def test_get_plan_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown plan"):
            get_plan("nope")

    def test_get_plan_splits_config_kwargs(self):
        plan = get_plan("w", softening=0.05, wg_size=128)
        assert plan.config.softening == 0.05
        assert plan.config.wg_size == 128

    def test_get_plan_forwards_constructor_kwargs(self):
        plan = get_plan("jw", softening=0.05, pipeline_batches=3)
        assert plan.config.softening == 0.05
        assert plan.pipeline_batches == 3

    def test_get_plan_config_object_exclusive_with_field_kwargs(self):
        with pytest.raises(ConfigurationError):
            get_plan("w", PlanConfig(), softening=0.05)

    def test_get_plan_rejects_instance(self):
        with pytest.raises(ConfigurationError, match="resolve_plan"):
            get_plan(WParallelPlan())

    def test_resolve_plan_name_and_instance(self):
        inst = WParallelPlan()
        assert resolve_plan(inst) is inst
        assert isinstance(resolve_plan("w"), WParallelPlan)
        with pytest.raises(ConfigurationError):
            resolve_plan(inst, PlanConfig())
        with pytest.raises(ConfigurationError):
            resolve_plan(42)

    def test_plan_by_name_alias(self, config):
        plan = plan_by_name("jw", config)
        assert isinstance(plan, JwParallelPlan)
        assert plan.config.softening == config.softening

    def test_register_rejects_duplicates_and_non_plans(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register("jw")
            class Rogue(WParallelPlan):
                pass

        with pytest.raises(ConfigurationError, match="Plan subclass"):

            @register("thing")
            class NotAPlan:
                pass

    def test_custom_plan_registers_and_unregisters(self):
        @register("custom-w")
        class CustomW(WParallelPlan):
            pass

        try:
            assert "custom-w" in available_plans()
            assert isinstance(get_plan("custom-w"), CustomW)
            # addressable through Simulation's name resolution too
            sim = Simulation(plummer(64, seed=1), "custom-w", dt=1e-3)
            assert isinstance(sim.plan, CustomW)
        finally:
            unregister("custom-w")
        assert "custom-w" not in available_plans()
        unregister("custom-w")  # idempotent


class TestNameResolutionEverywhere:
    def test_simulation_accepts_name_and_instance(self, plummer_small, config):
        by_name = Simulation(plummer_small, "jw", dt=1e-3, plan_config=config)
        by_inst = Simulation(plummer_small, JwParallelPlan(config), dt=1e-3)
        assert type(by_name.plan) is type(by_inst.plan)
        assert by_name.plan.config.softening == config.softening

    def test_facade_exports(self):
        assert repro.get_plan is get_plan
        assert repro.available_plans is available_plans
        from repro import plans as plans_module

        assert plans_module.get_plan is get_plan
        assert plans_module.Plan is Plan

    def test_resume_accepts_plan_name(self, tmp_path, plummer_small):
        sim = Simulation(plummer_small.copy(), "jw", dt=1e-3)
        RunSession(sim, tmp_path, checkpoint_every=2).run(4)
        # resume the jw run under the w plan, by name
        session = RunSession.resume(tmp_path, plan="w")
        assert isinstance(session.simulation.plan, WParallelPlan)
        # manifest's plan config rode along
        assert (
            session.simulation.plan.config.softening
            == sim.plan.config.softening
        )
        with pytest.raises(ConfigurationError, match="unknown plan"):
            RunSession.resume(tmp_path, plan="nope")


class TestDeprecatedPositionalShims:
    """The positional-tail shims are gone: keywords work, positionals raise."""

    def test_simulation_positional_dt_warns_but_works(self, plummer_small):
        # A positional dt is a TypeError, and the keyword form sets it.
        with pytest.raises(TypeError, match="positional"):
            Simulation(plummer_small, JwParallelPlan(), 2e-3)
        assert Simulation(plummer_small, JwParallelPlan(), dt=2e-3).dt == 2e-3

    def test_simulation_keyword_dt_is_clean(self, plummer_small):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulation(plummer_small, JwParallelPlan(), dt=2e-3)
        assert sim.dt == 2e-3

    def test_simulation_rejects_extra_positionals(self, plummer_small):
        with pytest.raises(TypeError, match="positional"):
            Simulation(plummer_small, JwParallelPlan(), 1e-3, None)

    def test_run_session_positional_checkpoint_every_warns(
        self, tmp_path, plummer_small
    ):
        # A positional checkpoint_every is a TypeError, and the keyword
        # form sets it.
        sim = Simulation(plummer_small, "i", dt=1e-3)
        with pytest.raises(TypeError, match="positional"):
            RunSession(sim, tmp_path, 5)
        assert RunSession(sim, tmp_path, checkpoint_every=5).checkpoint_every == 5

    def test_run_session_keyword_is_clean(self, tmp_path, plummer_small):
        sim = Simulation(plummer_small, "i", dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = RunSession(sim, tmp_path, checkpoint_every=5)
        assert session.checkpoint_every == 5

    def test_run_session_rejects_extra_positionals(
        self, tmp_path, plummer_small
    ):
        sim = Simulation(plummer_small, "i", dt=1e-3)
        with pytest.raises(TypeError, match="positional"):
            RunSession(sim, tmp_path, 5, None)


class TestStartAdvanceSplit:
    """run() == start() + unbounded advance(); slicing is bit-exact."""

    def test_sliced_advance_equals_run(self, plummer_small):
        base = plummer_small.copy()
        sim_a = Simulation(base.copy(), "jw", dt=1e-3)
        sim_b = Simulation(base.copy(), "jw", dt=1e-3)
        import tempfile

        with tempfile.TemporaryDirectory() as da, \
                tempfile.TemporaryDirectory() as db:
            RunSession(sim_a, da).run(7)
            session = RunSession(sim_b, db)
            target = session.start(7)
            assert target == 7
            ticks = 0
            while not session.advance(2):
                ticks += 1
                assert ticks < 100
            assert session.complete
        np.testing.assert_array_equal(
            sim_a.particles.positions, sim_b.particles.positions
        )
        np.testing.assert_array_equal(
            sim_a.particles.velocities, sim_b.particles.velocities
        )
        assert sim_a.record.force_passes == sim_b.record.force_passes

    def test_advance_requires_start(self, tmp_path, plummer_small):
        from repro.errors import StateError

        sim = Simulation(plummer_small, "i", dt=1e-3)
        session = RunSession(sim, tmp_path)
        with pytest.raises(StateError, match="start"):
            session.advance(1)

    def test_advance_validation(self, tmp_path, plummer_small):
        sim = Simulation(plummer_small.copy(), "i", dt=1e-3)
        session = RunSession(sim, tmp_path)
        session.start(3)
        with pytest.raises(ConfigurationError, match="max_steps"):
            session.advance(0)
        assert session.advance(None) is True
        assert session.advance(1) is True  # idempotent once complete
