"""Tests for repro.runtime and the repro.exec fault-tolerance layer.

The contracts under test:

1. a run interrupted between checkpoints resumes via ``RunSession.resume``
   and finishes **bit-identical** to an uninterrupted run (positions,
   velocities, time, record totals) — including when resumed onto a
   different worker count;
2. per-task retry and the dispatch deadline in ``ExecutionEngine`` each
   recover deterministically under an injected fault, observably
   (spans + counters);
3. the checkpoint format is crash-safe: unlisted checkpoint directories
   are ignored, manifests are atomically replaced.
"""

import json

import pytest

from repro import obs
from repro.check import assert_bit_identical
from repro.core.plans import PlanConfig
from repro.core.simulation import SimulationRecord
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ExecutionError,
)
from repro.exec import (
    ExecutionEngine,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
)
from repro.runtime import RunManifest, RunSession
from repro.runtime.checkpoint import plan_config_from_dict, plan_config_to_dict
from tests.conftest import EPS, Interrupt, interrupt_at, make_sim


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

class TestRunSession:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        ref = make_sim()
        ref.run(12)

        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=4)
        with pytest.raises(Interrupt):
            session.run(12, callback=interrupt_at(6))
        assert [c.step for c in session.manifest.checkpoints] == [4]

        resumed = RunSession.resume(tmp_path / "run")
        assert resumed.simulation.record.steps == 4
        record = resumed.run()

        assert record.steps == ref.record.steps
        assert record.force_passes == ref.record.force_passes
        assert record.simulated_seconds == ref.record.simulated_seconds
        assert record.interactions == ref.record.interactions
        assert resumed.simulation.time == ref.time
        assert_bit_identical(
            ref.particles.positions,
            resumed.simulation.particles.positions,
            context="resumed positions",
        )
        assert_bit_identical(
            ref.particles.velocities,
            resumed.simulation.particles.velocities,
            context="resumed velocities",
        )
        assert resumed.complete

    @pytest.mark.parametrize("workers", [2], ids=["thread"])
    def test_resume_onto_parallel_backend_stays_bit_identical(
        self, tmp_path, workers
    ):
        ref = make_sim()
        ref.run(8)

        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=3)
        with pytest.raises(Interrupt):
            session.run(8, callback=interrupt_at(5))

        with ExecutionEngine(workers) as engine:
            resumed = RunSession.resume(tmp_path / "run", engine=engine)
            resumed.run()
        assert_bit_identical(
            ref.particles.positions,
            resumed.simulation.particles.positions,
            context=f"resume onto {workers} threads: positions",
        )
        assert_bit_identical(
            ref.particles.velocities,
            resumed.simulation.particles.velocities,
            context=f"resume onto {workers} threads: velocities",
        )

    def test_uninterrupted_session_matches_plain_run(self, tmp_path):
        ref = make_sim()
        ref.run(6)
        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=2)
        session.run(6)
        assert_bit_identical(
            ref.particles.positions,
            session.simulation.particles.positions,
            context="uninterrupted session positions",
        )
        assert session.complete
        # intermediate checkpoints at 2 and 4, final at 6
        assert [c.step for c in session.manifest.checkpoints] == [2, 4, 6]

    def test_resume_without_acc_cache_still_bit_identical(self, tmp_path):
        """Dropping last_acc costs one bootstrap pass, never physics."""
        ref = make_sim()
        ref.run(10)
        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=5)
        with pytest.raises(Interrupt):
            session.run(10, callback=interrupt_at(7))
        (tmp_path / "run" / "ckpt_00000005" / "last_acc.npy").unlink()
        resumed = RunSession.resume(tmp_path / "run")
        assert resumed.simulation.last_acceleration is None
        record = resumed.run()
        assert_bit_identical(
            ref.particles.positions,
            resumed.simulation.particles.positions,
            context="resume without acc cache",
        )
        # the extra bootstrap pass is the only accounting difference
        assert record.force_passes == ref.record.force_passes + 1

    def test_unlisted_checkpoint_dir_is_ignored(self, tmp_path):
        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=2)
        with pytest.raises(Interrupt):
            session.run(8, callback=interrupt_at(5))
        # emulate a crash mid-checkpoint: a partial dir not in the manifest
        partial = tmp_path / "run" / "ckpt_00000099"
        partial.mkdir()
        (partial / "garbage").write_text("not a checkpoint")
        resumed = RunSession.resume(tmp_path / "run")
        assert resumed.simulation.record.steps == 4

    def test_fresh_session_refuses_existing_manifest(self, tmp_path):
        session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=2)
        session.run(2)
        with pytest.raises(CheckpointError):
            RunSession(make_sim(), tmp_path / "run")

    def test_resume_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            RunSession.resume(tmp_path / "nope")

    def test_resume_with_no_checkpoints(self, tmp_path):
        RunManifest(
            plan="j", plan_config=plan_config_to_dict(PlanConfig()),
            dt=1e-3, target_steps=10, checkpoint_every=0,
        ).write(tmp_path / "run")
        with pytest.raises(CheckpointError):
            RunSession.resume(tmp_path / "run")

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunSession(make_sim(), tmp_path / "a", checkpoint_every=-1)
        session = RunSession(make_sim(), tmp_path / "b")
        with pytest.raises(ConfigurationError):
            session.run()  # fresh session needs a target
        with pytest.raises(ConfigurationError):
            session.run(0)
        session.run(2)
        with pytest.raises(ConfigurationError):
            session.run(1)  # target behind current step

    def test_checkpoint_spans_and_counter(self, tmp_path):
        obs.enable(reset=True)
        try:
            session = RunSession(make_sim(), tmp_path / "run", checkpoint_every=2)
            session.run(4)
            names = [s.name for s in obs.tracer().spans]
            assert "runtime.run" in names
            assert names.count("runtime.checkpoint") == 2  # step 2 + final
            snap = obs.metrics().snapshot()
            assert snap["checkpoints_total"]["value"] == 2
        finally:
            obs.disable()

    def test_plan_config_round_trip(self):
        cfg = PlanConfig(softening=EPS, wg_size=128, theta=0.4, leaf_size=16)
        restored = plan_config_from_dict(plan_config_to_dict(cfg))
        assert restored == cfg

    def test_manifest_rejects_unknown_device(self, tmp_path):
        data = plan_config_to_dict(PlanConfig())
        data["device"] = "NVIDIA H100"
        with pytest.raises(CheckpointError):
            plan_config_from_dict(data)

    def test_record_round_trip_is_exact(self):
        sim = make_sim()
        sim.run(3)
        restored = SimulationRecord.from_dict(
            json.loads(json.dumps(sim.record.to_dict()))
        )
        assert restored.steps == sim.record.steps
        assert restored.force_passes == sim.record.force_passes
        assert restored.simulated_seconds == sim.record.simulated_seconds
        assert restored.kernel_seconds == sim.record.kernel_seconds


# ---------------------------------------------------------------------------
# Engine fault tolerance
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


class TestRetry:
    def test_serial_retry_recovers(self):
        eng = ExecutionEngine(
            retry=RetryPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_tasks=[3]),
        )
        assert eng.map(_square, range(6)) == [i * i for i in range(6)]
        assert eng.retries_total == 1

    def test_without_retry_fault_propagates(self):
        eng = ExecutionEngine(fault_injector=FaultInjector(fail_tasks=[2]))
        with pytest.raises(InjectedFault):
            eng.map(_square, range(6))

    def test_retries_exhausted_raises(self):
        eng = ExecutionEngine(
            retry=RetryPolicy(max_retries=1),
            fault_injector=FaultInjector(fail_tasks=[2], fail_attempts=5),
        )
        with pytest.raises(InjectedFault):
            eng.map(_square, range(6))

    @pytest.mark.parametrize("workers", [2], ids=["thread"])
    def test_parallel_retry_recovers(self, workers):
        with ExecutionEngine(
            workers,
            retry=RetryPolicy(max_retries=2),
            fault_injector=FaultInjector(fail_tasks=[0, 5]),
        ) as eng:
            assert eng.map(_square, range(8)) == [i * i for i in range(8)]
            assert eng.retries_total == 2

    def test_retry_emits_span_and_counter(self):
        obs.enable(reset=True)
        try:
            eng = ExecutionEngine(
                retry=RetryPolicy(max_retries=1),
                fault_injector=FaultInjector(fail_tasks=[1]),
            )
            eng.map(_square, range(4), label="unit")
            spans = [s for s in obs.tracer().spans if s.name == "exec.retry"]
            assert len(spans) == 1
            assert spans[0].attrs["task"] == 1
            assert obs.metrics().snapshot()["task_retries_total"]["value"] == 1
        finally:
            obs.disable()

    def test_seeded_failure_rate_is_deterministic(self):
        inj = FaultInjector(seed=42, task_failure_rate=0.5)
        draws = [inj.task_fault(i, 0) for i in range(64)]
        assert draws == [
            FaultInjector(seed=42, task_failure_rate=0.5).task_fault(i, 0)
            for i in range(64)
        ]
        assert any(draws) and not all(draws)
        # a different seed gives a different fault pattern
        other = [FaultInjector(seed=43, task_failure_rate=0.5).task_fault(i, 0)
                 for i in range(64)]
        assert draws != other

    def test_deadline_stops_retries(self):
        eng = ExecutionEngine(
            retry=RetryPolicy(max_retries=50, backoff_s=0.05, deadline_s=0.05),
            fault_injector=FaultInjector(fail_tasks=[0], fail_attempts=1000),
        )
        with pytest.raises(InjectedFault):
            eng.map(_square, range(2))

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultInjector(task_failure_rate=1.5)


# ---------------------------------------------------------------------------
# End-to-end: faults during a checkpointed run
# ---------------------------------------------------------------------------

class TestFaultsEndToEnd:
    def test_interrupt_retry_fallback_resume_bit_identical(self, tmp_path):
        """The full gauntlet on two threads: seeded task faults retried,
        an interrupt, then resume — final state matches a clean serial run
        bit for bit.

        ``wg_size=32`` gives each force pass several i-block tasks, so
        dispatches really run parallel.
        """
        ref = make_sim(wg_size=32)
        ref.run(9)

        injector = FaultInjector(seed=1, task_failure_rate=0.1)
        with ExecutionEngine(
            2, retry=RetryPolicy(max_retries=3), fault_injector=injector,
        ) as engine:
            session = RunSession(
                make_sim(engine=engine, wg_size=32),
                tmp_path / "run",
                checkpoint_every=3,
            )
            with pytest.raises(Interrupt):
                session.run(9, callback=interrupt_at(5))
            assert engine.retries_total > 0

        resumed = RunSession.resume(tmp_path / "run")
        assert resumed.simulation.record.steps == 3
        resumed.run()

        assert_bit_identical(
            ref.particles.positions,
            resumed.simulation.particles.positions,
            context="fault gauntlet positions",
        )
        assert_bit_identical(
            ref.particles.velocities,
            resumed.simulation.particles.velocities,
            context="fault gauntlet velocities",
        )
        assert resumed.simulation.record.force_passes == ref.record.force_passes
