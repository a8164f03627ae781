"""Tests for repro.exec: workspace pool, parallel engine, determinism.

Covers the three contracts the execution layer makes:

1. the workspace pool hands out reused storage and does not grow in
   steady state;
2. ``ExecutionEngine.map`` returns results in fixed index order for any
   worker count, so parallel force passes are **bit-identical** to serial;
3. dispatches are observable (``exec.dispatch`` / ``exec.worker`` spans,
   ``tasks_total`` counter, ``workspace_bytes`` gauge);
4. a pass is cut by its work (``ExecutionEngine.split``), and any cut
   gives the rows one task per simulated work-group gives.

Plus regression tests for the PR's bugfixes: step/force-pass accounting,
coincident-body detection in ``direct_forces``, and ``out=`` validation
in ``accelerations_from_sources``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.check import assert_bit_identical
from repro.core.plans import PlanConfig, get_plan
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
from repro.exec import engine as engine_module
from repro.exec.engine import MIN_TASK_WORK
from repro.nbody.forces import accelerations_from_sources, direct_forces
from repro.nbody.ic import plummer
from repro.nbody.kernels import get_backend

PLANS = ["i", "j", "w", "jw"]
EPS = 1e-2

needs_cext = pytest.mark.skipif(
    not get_backend("cext").available,
    reason=f"cext backend unavailable: {get_backend('cext').unavailable_reason}",
)
BACKENDS = ["numpy", pytest.param("cext", marks=needs_cext)]


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
        ref = get_plan(plan_name, cfg).accelerations(pos, mass)
        with ExecutionEngine(workers) as eng:
            acc = get_plan(plan_name, cfg, engine=eng).accelerations(pos, mass)
        assert acc.dtype == ref.dtype
        assert_bit_identical(
            ref, acc, context=f"plan {plan_name} on {workers} threads"
        )

    @pytest.mark.parametrize("plan_name", PLANS)
    def test_workspace_does_not_grow_across_passes(self, bodies, plan_name):
        pos, mass = bodies
        plan = get_plan(plan_name, PlanConfig(softening=EPS))
        plan.accelerations(pos, mass)  # warm the pool
        ws = local_workspace()
        nbytes, allocs = ws.nbytes, ws.allocations
        for _ in range(3):
            plan.accelerations(pos, mass)
        assert ws.nbytes == nbytes
        assert ws.allocations == allocs


# ---------------------------------------------------------------------------
# Cutting a pass by its work
# ---------------------------------------------------------------------------

def _work(ranges, work):
    return [int(np.sum(work[a:b])) for a, b in ranges]


class TestSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        work=st.lists(st.integers(0, 3 * MIN_TASK_WORK), max_size=40),
        workers=st.integers(1, 4),
    )
    def test_ranges_cover_in_order_and_respect_the_minimum(self, work, workers):
        ranges = ExecutionEngine(workers).split(work)
        assert 1 <= len(ranges) <= workers
        assert ranges[0][0] == 0 and ranges[-1][1] == len(work)
        assert all(a1 == b0 for (_, a1), (b0, _) in zip(ranges, ranges[1:]))
        if len(ranges) > 1:
            assert all(a < b for a, b in ranges)
            assert min(_work(ranges, np.array(work))) >= MIN_TASK_WORK
        if sum(work) < 2 * MIN_TASK_WORK:
            assert len(ranges) == 1

    def test_edge_cases(self):
        engine = ExecutionEngine(4)
        assert engine.split([]) == [(0, 0)]
        assert engine.split([10 * MIN_TASK_WORK]) == [(0, 1)]
        assert engine.split([MIN_TASK_WORK] * 8) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert ExecutionEngine(1).split([MIN_TASK_WORK] * 8) == [(0, 8)]

    def test_rows_of_a_pass_split_at_twice_the_minimum(self):
        # one row of an all-pairs pass is n interactions
        n = int(np.sqrt(2 * MIN_TASK_WORK))
        engine = ExecutionEngine(2)
        assert engine.split(np.full(n, n)) == [(0, n // 2), (n // 2, n)]
        assert engine.split(np.full(n - 1, n - 1)) == [(0, n - 1)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_similar_work_per_range(self, workers):
        work = np.random.default_rng(5).integers(1, 1000, 5000) * 10
        ranges = ExecutionEngine(workers).split(work)
        assert len(ranges) == workers
        shares = _work(ranges, work)
        assert max(shares) - min(shares) <= 2 * work.max()


def _rows_per_workgroup(targets, pos, mass, segments, cfg, backend):
    """Float32 rows of ``targets``, one work-group of ``wg_size`` rows at a
    time, each summing its ``segments`` of the sources in order."""
    p = cfg.wg_size
    out = np.empty((targets.shape[0], 3), np.float32)
    for a in range(0, targets.shape[0], p):
        b = min(a + p, targets.shape[0])
        partials = np.zeros((len(segments), b - a, 3), np.float32)
        for k, (j0, j1) in enumerate(segments):
            accelerations_from_sources(
                targets[a:b], pos[j0:j1], mass[j0:j1], block=p, dtype=np.float32,
                softening=cfg.softening, out=partials[k], backend=backend,
            )
        out[a:b] = partials.sum(axis=0, dtype=np.float32)
    return out.astype(np.float64)


class TestWorkCut:
    """Any cut of a pass gives the rows one task per work-group gives."""

    N = 1000

    @pytest.fixture(scope="class")
    def system(self):
        p = plummer(self.N, seed=21)
        return p.positions, p.masses

    def _case(self, plan_name, backend, system):
        """(config, per-work-group reference rows, the pass, target rows)."""
        pos, mass = system
        n = self.N
        cfg = PlanConfig(softening=EPS, wg_size=64, kernel_backend=backend)
        active = np.arange(1, n, 3) if plan_name == "block-i" else None
        targets = pos if active is None else pos[active]
        segments = [(0, n)]
        if plan_name == "j":
            plan = get_plan("j", cfg)
            segments = plan._segments(n, plan.split_factor(n))
            assert len(segments) > 1

        def run(plan):
            if active is None:
                return plan.accelerations(pos, mass)
            return plan.compute_step(pos, mass, active=active)[0]

        ref = _rows_per_workgroup(targets, pos, mass, segments, cfg, backend)
        return cfg, ref, run, targets.shape[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan_name", ["i", "j", "block-i"])
    def test_rows_equal_one_task_per_workgroup(
        self, plan_name, backend, system, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MIN_TASK_WORK", 1 << 12)
        cfg, ref, run, rows = self._case(plan_name, backend, system)
        workgroups = -(-rows // cfg.wg_size)
        for workers in (1, 2, 3):
            with ExecutionEngine(workers) as engine:
                acc = run(get_plan(plan_name, cfg, engine=engine))
                tasks = engine.tasks_total
            assert tasks == (workgroups if backend == "numpy" else workers)
            assert_bit_identical(
                ref, acc, context=f"{plan_name} on {backend}, {workers} workers"
            )

    @needs_cext
    def test_small_pass_is_one_task_on_the_calling_thread(self, bodies):
        pos, mass = bodies  # 1,024 bodies: 1.05 M interactions
        obs.enable(reset=True)
        try:
            with ExecutionEngine(2) as engine:
                plan = get_plan("i", PlanConfig(softening=EPS, kernel_backend="cext"),
                                engine=engine)
                plan.accelerations(pos, mass)
                assert engine.tasks_total == 1
            dispatch = next(
                s for s in obs.tracer().spans if s.name == "exec.dispatch"
            )
            assert dispatch.attrs["backend"] == "serial"
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------

class TestStepAccounting:
    """Regression: the record conflated force passes with steps."""

    def _sim(self, n_bodies=64, seed=3):
        return Simulation(
            plummer(n_bodies, seed=seed),
            get_plan("i", PlanConfig(softening=EPS)),
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

