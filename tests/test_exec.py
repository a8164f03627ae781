"""Tests for repro.exec: workspace pool, parallel engine, determinism.

Covers the three contracts the execution layer makes:

1. the workspace pool hands out reused storage and does not grow in
   steady state;
2. ``ExecutionEngine.map`` returns results in fixed index order for any
   worker count, so parallel force passes are **bit-identical** to serial;
3. dispatches are observable (``exec.dispatch`` / ``exec.worker`` spans,
   ``tasks_total`` counter, ``workspace_bytes`` gauge).

Plus regression tests for the PR's bugfixes: step/force-pass accounting,
coincident-body detection in ``direct_forces``, and ``out=`` validation
in ``accelerations_from_sources``.
"""

import numpy as np
import pytest

from repro import obs
from repro.check import assert_bit_identical
from repro.core.plans import PlanConfig, plan_by_name
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.exec import (
    EnginePool,
    ExecutionEngine,
    Workspace,
    get_default_engine,
    local_workspace,
    total_workspace_bytes,
)
from repro.nbody.forces import accelerations_from_sources, direct_forces
from repro.nbody.ic import plummer

PLANS = ["i", "j", "w", "jw"]
EPS = 1e-2


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------

class TestWorkspace:
    def test_take_reuses_storage(self):
        ws = Workspace(register=False)
        a = ws.take("d", (4, 3))
        b = ws.take("d", (4, 3))
        assert a.base is b.base
        assert ws.requests == 2
        assert ws.allocations == 1

    def test_grow_only_capacity(self):
        ws = Workspace(register=False)
        ws.take("d", 100)
        ws.take("d", 50)  # smaller: no new allocation
        assert ws.allocations == 1
        ws.take("d", 200)  # larger: grows
        assert ws.allocations == 2
        ws.take("d", 100)  # fits in grown capacity
        assert ws.allocations == 2

    def test_dtype_keys_are_independent(self):
        ws = Workspace(register=False)
        a = ws.take("d", 8, np.float64)
        b = ws.take("d", 8, np.float32)
        a[...] = 1.0
        b[...] = 2.0
        assert np.all(a == 1.0)
        assert np.all(b == 2.0)
        assert ws.n_buffers == 2

    def test_shape_and_dtype_of_views(self):
        ws = Workspace(register=False)
        arr = ws.take("x", (3, 5, 2), np.float32)
        assert arr.shape == (3, 5, 2)
        assert arr.dtype == np.float32

    def test_zeros_zero_fills(self):
        ws = Workspace(register=False)
        ws.take("acc", 6)[...] = 7.0  # dirty the buffer
        assert np.all(ws.zeros("acc", 6) == 0.0)

    def test_cast_is_noop_on_matching_dtype(self):
        ws = Workspace(register=False)
        arr = np.ones(4, np.float32)
        assert ws.cast("c", arr, np.float32) is arr
        out = ws.cast("c", arr, np.float64)
        assert out is not arr
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, arr)

    def test_stats_and_clear(self):
        ws = Workspace(name="t", register=False)
        ws.take("d", 10, np.float64)
        s = ws.stats()
        assert s["name"] == "t"
        assert s["nbytes"] == 80
        assert s["n_buffers"] == 1
        ws.clear()
        assert ws.nbytes == 0
        assert ws.allocations == 1  # counters survive clear

    def test_local_workspace_is_per_thread_and_cached(self):
        import threading

        ws = local_workspace()
        assert local_workspace() is ws
        seen = []
        t = threading.Thread(target=lambda: seen.append(local_workspace()))
        t.start()
        t.join()
        assert seen[0] is not ws

    def test_total_workspace_bytes_counts_registered(self):
        before = total_workspace_bytes()
        ws = Workspace(name="counted")
        ws.take("d", 1000, np.float64)
        assert total_workspace_bytes() >= before + 8000
        ws.clear()


# ---------------------------------------------------------------------------
# ExecutionEngine
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


class TestEngine:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(0)
        with pytest.raises(ConfigurationError):
            EnginePool(workers=0)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread"])
    def test_map_preserves_order(self, workers):
        with ExecutionEngine(workers) as eng:
            assert eng.map(_square, range(20)) == [i * i for i in range(20)]

    def test_serial_fallback_for_single_task(self):
        with ExecutionEngine(2) as eng:
            assert eng.map(_square, [3]) == [9]

    def test_counters_accumulate(self):
        with ExecutionEngine() as eng:
            eng.map(_square, range(5))
            eng.map(_square, range(3))
            assert eng.tasks_total == 8
            assert eng.dispatches == 2
            d = eng.describe()
            assert d["backend"] == "serial"
            assert d["tasks_total"] == 8

    def test_default_engine_configure_roundtrip(self):
        import repro

        eng = repro.configure(workers=2)
        assert get_default_engine() is eng
        assert eng.workers == 2
        assert eng.effective_backend == "thread"
        serial = repro.configure(workers=1)
        assert serial.effective_backend == "serial"

    def test_map_emits_spans_and_metrics(self):
        obs.enable(reset=True)
        try:
            with ExecutionEngine(2) as eng:
                eng.map(_square, range(4), label="unit")
            spans = {s.name for s in obs.tracer().spans}
            assert "exec.dispatch" in spans
            assert "exec.worker" in spans
            dispatch = next(s for s in obs.tracer().spans if s.name == "exec.dispatch")
            assert dispatch.attrs["tasks"] == 4
            assert dispatch.attrs["label"] == "unit"
            workers = [s for s in obs.tracer().spans if s.name == "exec.worker"]
            assert [s.attrs["task"] for s in workers] == [0, 1, 2, 3]
            snap = obs.metrics().snapshot()
            assert snap["tasks_total"]["value"] == 4
            assert "workspace_bytes" in snap
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# Serial vs parallel bit-equality on the real force paths
# ---------------------------------------------------------------------------

class TestBitEquality:
    @pytest.mark.parametrize("plan_name", PLANS)
    @pytest.mark.parametrize("workers", [2, 3], ids=["thread-2", "thread-3"])
    def test_parallel_matches_serial_bitwise(self, bodies, plan_name, workers):
        pos, mass = bodies
        cfg = PlanConfig(softening=EPS)
        ref = plan_by_name(plan_name, cfg).accelerations(pos, mass)
        with ExecutionEngine(workers) as eng:
            acc = plan_by_name(plan_name, cfg, engine=eng).accelerations(pos, mass)
        assert acc.dtype == ref.dtype
        assert_bit_identical(
            ref, acc, context=f"plan {plan_name} on {workers} threads"
        )

    @pytest.mark.parametrize("plan_name", PLANS)
    def test_workspace_does_not_grow_across_passes(self, bodies, plan_name):
        pos, mass = bodies
        plan = plan_by_name(plan_name, PlanConfig(softening=EPS))
        plan.accelerations(pos, mass)  # warm the pool
        ws = local_workspace()
        nbytes, allocs = ws.nbytes, ws.allocations
        for _ in range(3):
            plan.accelerations(pos, mass)
        assert ws.nbytes == nbytes
        assert ws.allocations == allocs


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------

class TestStepAccounting:
    """Regression: the record conflated force passes with steps."""

    def _sim(self, n_bodies=64, seed=3):
        return Simulation(
            plummer(n_bodies, seed=seed),
            plan_by_name("i", PlanConfig(softening=EPS)),
            dt=1e-3,
        )

    def test_steps_and_force_passes_diverge_by_one(self):
        sim = self._sim()
        sim.run(5)
        assert sim.record.steps == 5
        assert sim.record.force_passes == 6

    def test_step_span_index_counts_steps(self):
        obs.enable(reset=True)
        try:
            sim = self._sim()
            sim.run(3)
            indices = [
                s.attrs["index"] for s in obs.tracer().spans if s.name == "step"
            ]
            assert indices == [0, 1, 2]
        finally:
            obs.disable()

    def test_invalidate_forces_triggers_rebootstrap(self):
        sim = self._sim()
        sim.run(2)
        assert sim.record.force_passes == 3
        sim.invalidate_forces()
        sim.step()
        # fresh bootstrap: two new passes instead of one
        assert sim.record.force_passes == 5
        assert sim.record.steps == 3


class TestCoincidentBodies:
    """Regression: coincident distinct bodies silently produced inf/nan."""

    def test_raises_with_zero_softening(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        mass = np.ones(3)
        with pytest.raises(ValueError, match="coincident"):
            direct_forces(pos, mass, softening=0.0, include_self=False)

    def test_softening_legalises_coincidence(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        mass = np.ones(3)
        acc = direct_forces(pos, mass, softening=1e-2, include_self=False)
        assert np.all(np.isfinite(acc))

    def test_distinct_bodies_unaffected(self):
        p = plummer(32, seed=11)
        acc = direct_forces(p.positions, p.masses, softening=0.0, include_self=False)
        assert np.all(np.isfinite(acc))


class TestOutValidation:
    """Regression: wrong-shape/dtype ``out`` was silently accepted."""

    def _args(self, nt=8, ns=16):
        rng = np.random.default_rng(0)
        return (
            rng.standard_normal((nt, 3)),
            rng.standard_normal((ns, 3)),
            rng.random(ns),
        )

    def test_wrong_shape_raises(self):
        t, s, m = self._args()
        with pytest.raises(ValueError, match="out"):
            accelerations_from_sources(t, s, m, out=np.zeros((4, 3)))

    def test_wrong_dtype_raises(self):
        t, s, m = self._args()
        with pytest.raises(ValueError, match="out"):
            accelerations_from_sources(
                t, s, m, out=np.zeros((8, 3), np.float32)
            )

    def test_non_array_raises(self):
        t, s, m = self._args()
        with pytest.raises(ValueError, match="out"):
            accelerations_from_sources(t, s, m, out=[[0.0] * 3] * 8)

    def test_valid_out_accepted(self):
        t, s, m = self._args()
        out = np.zeros((8, 3))
        res = accelerations_from_sources(t, s, m, out=out)
        assert res is out
        assert np.any(out != 0.0)

