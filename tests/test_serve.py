"""Tests for repro.serve: specs, queue, cache, scheduler, service.

The contracts under test:

1. :class:`JobSpec` is a canonical content address — equal physics
   yields equal hashes, ``checkpoint_every`` never enters the hash, and
   plan instances normalise to (name, config);
2. the queue enforces strict priority order with FIFO ties and rejects
   (``AdmissionError``) rather than blocks at capacity;
3. identical in-flight specs coalesce onto one handle, and a completed
   spec is answered from the content-addressed cache;
4. a job's final state is **bit-identical** whether it runs alone,
   step-sliced against siblings, or is served from cache;
5. a fault-injected job fails (or retries) inside its own engine without
   perturbing sibling jobs sharing the pool.

Multi-tenant fairness of :class:`~repro.serve.FairJobQueue` is tested in
``tests/test_tenancy.py``.
"""

import gc
import sqlite3
import threading
import weakref

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.plans import PlanConfig, get_plan
from repro.errors import (
    AdmissionError,
    CheckpointError,
    ConfigurationError,
    ServeError,
)
from repro.exec import EnginePool, FaultInjector, RetryPolicy
from repro.serve import (
    FairJobQueue,
    JobHandle,
    JobService,
    JobSpec,
    ResultCache,
    Scheduler,
    SubmitOptions,
    connect,
)
from repro.config import resolve
from repro.obs.ledger import RunLedger
from repro.serve.jobs import JobRecord
from repro.serve.options import check_timeout
from repro.runtime.checkpoint import plan_config_to_dict
from repro.check import assert_bit_identical
from repro.check.golden import state_digest
from repro.nbody.kernels import get_backend
from repro.runtime import RunManifest, RunSession
from repro.serve.cache import load_result
from tests.conftest import small_spec, solo_state

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_hash_is_stable_and_canonical(self):
        a = small_spec()
        b = JobSpec(steps=5, dt=1e-3, plan="jw", seed=1, n=128)
        assert a.spec_hash() == b.spec_hash()
        assert len(a.spec_hash()) == 64

    def test_checkpoint_every_excluded_from_hash(self):
        assert (
            small_spec(checkpoint_every=0).spec_hash()
            == small_spec(checkpoint_every=2).spec_hash()
        )
        assert small_spec(checkpoint_every=2) == small_spec(checkpoint_every=3)

    def test_physics_fields_change_hash(self):
        base = small_spec()
        for variant in (
            small_spec(n=129),
            small_spec(seed=2),
            small_spec(plan="i"),
            small_spec(dt=2e-3),
            small_spec(steps=6),
            small_spec(workload="uniform"),
            small_spec(plan_config=PlanConfig(softening=0.05)),
        ):
            assert variant.spec_hash() != base.spec_hash()

    def test_plan_instance_normalises_to_name_and_config(self):
        cfg = PlanConfig(softening=0.05)
        by_instance = small_spec(plan=get_plan("w", cfg))
        by_name = small_spec(plan="w", plan_config=cfg)
        assert by_instance.plan == "w"
        assert by_instance.spec_hash() == by_name.spec_hash()

    def test_plan_instance_with_config_rejected(self):
        with pytest.raises(ServeError, match="plan_config"):
            small_spec(plan=get_plan("w"), plan_config=PlanConfig())

    def test_validation(self):
        with pytest.raises(ServeError, match="unknown plan"):
            small_spec(plan="nope")
        with pytest.raises(ServeError, match="unknown workload"):
            small_spec(workload="nope")
        with pytest.raises(ServeError, match="steps"):
            small_spec(steps=0)
        with pytest.raises(ServeError, match="dt"):
            small_spec(dt=0.0)
        with pytest.raises(ServeError, match="n must be"):
            small_spec(n=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", "5"),
            ("n", 64.0),
            ("n", True),
            ("seed", 1.5),
            ("seed", -1),
            ("steps", 2.5),  # hashed as steps=2, yet ran 3 steps
            ("checkpoint_every", 1.5),
            ("dt", float("nan")),
            ("dt", float("inf")),
            ("dt", "1e-3"),
        ],
    )
    def test_rejects_non_integral_counts_and_non_finite_dt(self, field, value):
        with pytest.raises(ServeError, match=field):
            small_spec(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("leaf_size", 2.5),  # hashed and run as leaf_size=2
            ("leaf_size", True),
            ("n_rungs", 2.5),
            ("wg_size", 64.0),
            ("wg_size", "64"),
            ("softening", True),
            ("theta", "0.6"),
            ("step_eta", True),
            ("softening", 0.0),  # every row of every plan would be NaN
        ],
    )
    def test_rejects_malformed_plan_config_values(self, field, value):
        config = {**plan_config_to_dict(PlanConfig()), field: value}
        with pytest.raises(ConfigurationError, match=field):
            JobSpec.from_dict({**small_spec().to_dict(), "plan_config": config})

    def test_numpy_integers_normalise_to_int(self):
        spec = small_spec(n=np.int64(64), steps=np.int64(2))
        assert type(spec.n) is int and type(spec.steps) is int
        assert spec.spec_hash() == small_spec(n=64, steps=2).spec_hash()

    def test_partial_plan_config_dict_names_missing_keys(self):
        with pytest.raises(ConfigurationError) as exc_info:
            JobSpec(
                n=64, plan="i", steps=1, plan_config={"kernel_backend": "cext"}
            )
        message = str(exc_info.value)
        for key in ("wg_size", "softening", "G", "theta", "leaf_size"):
            assert key in message
        # A full dict is accepted and hashes like the equivalent PlanConfig.
        full = small_spec(plan_config=plan_config_to_dict(PlanConfig()))
        typed = small_spec(plan_config=PlanConfig())
        assert full.spec_hash() == typed.spec_hash()

    def test_round_trip_through_dict(self):
        spec = small_spec(checkpoint_every=2)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        with pytest.raises(ServeError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"n": 4, "bogus": 1})


# ---------------------------------------------------------------------------
# JobQueue (FairJobQueue with one tenant: the service's queue)
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order_fifo_within_level(self):
        q = FairJobQueue(capacity=10)
        q.push("low-1", priority=0)
        q.push("high-1", priority=5)
        q.push("low-2", priority=0)
        q.push("high-2", priority=5)
        assert [q.pop() for _ in range(4)] == [
            "high-1", "high-2", "low-1", "low-2"
        ]

    def test_capacity_rejection(self):
        q = FairJobQueue(capacity=2)
        q.push("a")
        q.push("b")
        with pytest.raises(AdmissionError, match="capacity"):
            q.push("c")
        assert q.rejected == 1
        q.pop()
        q.push("c")  # slot freed, accepted again
        assert q.accepted == 3

    def test_close_wakes_blocked_pop(self):
        q = FairJobQueue(capacity=2)
        got = []
        t = threading.Thread(target=lambda: got.append(q.pop(timeout=5)))
        t.start()
        q.close()
        t.join(timeout=5)
        assert got == [None]
        with pytest.raises(ServeError, match="closed"):
            q.push("x")

    def test_pop_timeout(self):
        assert FairJobQueue().pop(timeout=0.01) is None


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit_after_service_run(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        assert cache.lookup(spec) is None
        with connect(None, cache_dir=tmp_path) as service:
            fresh = service.run(spec)
        assert not fresh.from_cache
        hit = cache.lookup(spec)
        assert hit is not None and hit.from_cache
        assert_bit_identical(fresh.positions, hit.positions)

    def test_incomplete_entry_is_miss_and_reclaimed(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        stale = cache.entry_dir(spec)
        stale.mkdir(parents=True)
        (stale / "manifest.json").write_text("{ not json")
        assert cache.lookup(spec) is None
        claimed = cache.claim(spec)
        assert claimed == stale and not claimed.exists()

    def test_claim_refuses_complete_entry(self, tmp_path):
        spec = small_spec()
        with connect(None, cache_dir=tmp_path) as service:
            service.run(spec)
        cache = ResultCache(tmp_path)
        with pytest.raises(ServeError, match="complete"):
            cache.claim(spec)
        assert cache.evict(spec)
        assert cache.lookup(spec) is None

    def test_concurrent_reclaim_has_exactly_one_winner(self, tmp_path):
        # Regression: reclaim used to rmtree the entry in place, so two
        # concurrent claimants could race the teardown (FileNotFoundError
        # mid-walk, or one deleting the directory the other had started
        # repopulating).  The rename-into-place makes it single-winner.
        spec = small_spec()
        cache = ResultCache(tmp_path)
        for attempt in range(5):
            stale = cache.entry_dir(spec)
            (stale / "ckpt_00000001").mkdir(parents=True)
            (stale / "manifest.json").write_text("{ not json")
            wins, errors = [], []
            barrier = threading.Barrier(4)

            def reclaim():
                barrier.wait()
                try:
                    wins.append(ResultCache._reclaim(stale))
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)

            threads = [threading.Thread(target=reclaim) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert sum(wins) == 1, f"attempt {attempt}: {wins}"
            assert not stale.exists()
        # Retired debris is invisible to the entry count.
        assert len(cache) == 0

    def test_claim_or_resume_modes(self, tmp_path):
        spec = small_spec(steps=10, checkpoint_every=2)
        cache = ResultCache(tmp_path)
        # Nothing on disk: fresh.
        path, mode = cache.claim_or_resume(spec)
        assert mode == "fresh" and path == cache.entry_dir(spec)
        # Unusable debris (no checkpoints): retired, still fresh.
        path.mkdir(parents=True)
        (path / "manifest.json").write_text("{ not json")
        path, mode = cache.claim_or_resume(spec)
        assert mode == "fresh" and not path.exists()
        # An interrupted run with intact checkpoints: resume.
        from tests.conftest import Interrupt, interrupt_at

        session = repro.RunSession(
            spec.build_simulation(), path, checkpoint_every=2, ledger=False
        )
        with pytest.raises(Interrupt):
            session.run(spec.steps, callback=interrupt_at(5))
        path, mode = cache.claim_or_resume(spec)
        assert mode == "resume"
        # Completed by another shard between lookup and claim: complete.
        resumed = repro.RunSession.resume(path, ledger=False)
        resumed.run(spec.steps)
        path, mode = cache.claim_or_resume(spec)
        assert mode == "complete"
        assert cache.load(spec, from_cache=True).steps == spec.steps


# ---------------------------------------------------------------------------
# Service behaviour
# ---------------------------------------------------------------------------

class TestJobService:
    def test_batched_results_bit_identical_to_solo(self, tmp_path):
        specs = [
            small_spec(seed=s, plan=p)
            for s, p in [(1, "jw"), (2, "i"), (3, "w"), (4, "j")]
        ]
        with connect(
            None, cache_dir=tmp_path, max_concurrent_jobs=4, steps_per_slice=2
        ) as service:
            handles = [service.submit(spec) for spec in specs]
            results = [handle.result(timeout=120) for handle in handles]
        for spec, result in zip(specs, results):
            pos, vel, time = solo_state(spec)
            assert_bit_identical(pos, result.positions)
            assert_bit_identical(vel, result.velocities)
            assert result.time == time
            assert result.steps == spec.steps

    def test_many_live_sessions_interleave_in_one_step_slices(self, tmp_path):
        # Four live sessions, 1-step slices: maximal interleaving over
        # the shared ready list, still bit-identical per job.
        specs = [small_spec(seed=s) for s in (1, 2, 3, 4)]
        svc = JobService(
            cache_dir=tmp_path,
            max_concurrent_jobs=4,
            steps_per_slice=1,
        )
        try:
            handles = [svc.submit(spec) for spec in specs]
            results = [h.result(timeout=120) for h in handles]
        finally:
            svc.close()
        assert svc.scheduler.slices >= 4 * specs[0].steps
        for spec, result in zip(specs, results):
            pos, _, _ = solo_state(spec)
            assert_bit_identical(pos, result.positions)

    def test_cache_hit_bit_identical_to_fresh(self, tmp_path):
        spec = small_spec()
        with connect(None, cache_dir=tmp_path) as service:
            fresh = service.run(spec)
            cached = service.run(small_spec())  # equal spec, new object
        assert not fresh.from_cache and cached.from_cache
        assert_bit_identical(fresh.positions, cached.positions)
        assert_bit_identical(fresh.velocities, cached.velocities)
        assert cached.time == fresh.time
        assert cached.record == fresh.record

    def test_cache_survives_service_restart(self, tmp_path):
        spec = small_spec()
        with connect(None, cache_dir=tmp_path) as service:
            fresh = service.run(spec)
        with connect(None, cache_dir=tmp_path) as service:
            again = service.run(spec)
        assert again.from_cache
        assert_bit_identical(fresh.positions, again.positions)

    def test_inflight_dedup_returns_same_handle(self, tmp_path):
        svc = JobService(cache_dir=tmp_path, max_concurrent_jobs=1)
        try:
            first = svc.submit(small_spec(seed=7))
            dup = svc.submit(small_spec(seed=7))
            other = svc.submit(small_spec(seed=8))
            assert dup is first
            assert other is not first
            assert first.dedup_count == 1
            assert svc.deduped == 1
            first.result(timeout=120)
            other.result(timeout=120)
        finally:
            svc.close()

    def test_queue_capacity_rejects_submit(self, tmp_path):
        svc = JobService(
            cache_dir=tmp_path, queue_capacity=1, max_concurrent_jobs=1
        )
        try:
            # Long-running jobs keep the single runner busy so the queue
            # actually fills: one live + one queued, third rejected.
            handles = [svc.submit(small_spec(seed=100, steps=50))]
            rejected = 0
            for s in range(101, 140):
                try:
                    handles.append(svc.submit(small_spec(seed=s, steps=50)))
                except AdmissionError:
                    rejected += 1
                    break
            assert rejected == 1, "capacity-1 queue never pushed back"
            for h in handles:
                h.result(timeout=120)
        finally:
            svc.close()

    def test_slice_listener_sees_every_slice_then_finished(self, tmp_path):
        """The seam the gateway's per-slice SSE stream is fed from."""
        spec = small_spec(seed=11, steps=24)
        events = []
        svc = JobService(cache_dir=tmp_path, steps_per_slice=8)
        try:
            svc.add_slice_listener(events.append)
            svc.submit(spec).result(timeout=120)
        finally:
            svc.close()
        assert [e["type"] for e in events] == ["slice"] * 3 + ["finished"]
        assert [e.get("steps") for e in events] == [8, 8, 8, None]
        assert all(e["spec_hash"] == spec.spec_hash() for e in events)
        assert all("tenant" in e for e in events)

    def test_repeated_specs_are_never_stepped_twice(self, tmp_path, monkeypatch):
        """Each repeat in a batch coalesces in flight or is answered from
        the cache, so the service steps every distinct spec exactly once."""
        from repro.core.simulation import Simulation

        stepped = []
        real_step = Simulation.step

        def counted_step(sim):
            stepped.append(sim)
            return real_step(sim)

        monkeypatch.setattr(Simulation, "step", counted_step)
        unique = [
            small_spec(seed=s, plan=p) for s, p in [(1, "jw"), (2, "i"), (3, "w")]
        ]
        repeats = [unique[0], unique[2], unique[0]]
        with connect(None, cache_dir=tmp_path, max_concurrent_jobs=2) as service:
            handles = [service.submit(spec) for spec in unique + repeats]
            for handle in handles:
                handle.result(timeout=120)
            described = service.describe()
        assert described["deduped"] + described["cache_hits"] == len(repeats)
        assert len(stepped) == sum(spec.steps for spec in unique)

    def test_fault_injected_job_does_not_perturb_siblings(self, tmp_path):
        good_spec = small_spec(seed=1)
        bad_spec = small_spec(seed=9, plan="i")
        pos, vel, _ = solo_state(good_spec)
        with connect(None, cache_dir=tmp_path, max_concurrent_jobs=2) as service:
            bad = service.submit(
                bad_spec,
                options=SubmitOptions(
                    fault_injector=FaultInjector(
                        seed=7, task_failure_rate=1.0, fail_attempts=99
                    ),
                ),
            )
            good = service.submit(good_spec)
            result = good.result(timeout=120)
            bad.wait(timeout=120)
        assert bad.status == "failed" and bad.error is not None
        with pytest.raises(Exception):
            bad.result()
        assert_bit_identical(pos, result.positions)
        assert_bit_identical(vel, result.velocities)

    def test_faulty_job_with_retries_still_bit_identical(self, tmp_path):
        spec = small_spec(seed=3, plan="j")
        pos, _, _ = solo_state(spec)
        with connect(None, cache_dir=tmp_path) as service:
            handle = service.submit(
                spec,
                options=SubmitOptions(
                    fault_injector=FaultInjector(
                        seed=5, task_failure_rate=0.3, fail_attempts=1
                    ),
                    retry=RetryPolicy(max_retries=5, backoff_s=0.0),
                ),
            )
            result = handle.result(timeout=120)
        assert not result.from_cache
        assert_bit_identical(pos, result.positions)

    def test_failed_job_not_cached(self, tmp_path):
        spec = small_spec(seed=9)
        with connect(None, cache_dir=tmp_path) as service:
            bad = service.submit(
                spec,
                options=SubmitOptions(
                    fault_injector=FaultInjector(
                        seed=1, task_failure_rate=1.0, fail_attempts=99
                    ),
                ),
            )
            bad.wait(timeout=120)
            assert bad.status == "failed"
            # Same spec resubmitted healthy: must re-run, not hit cache.
            result = service.submit(spec).result(timeout=120)
        assert not result.from_cache
        pos, _, _ = solo_state(spec)
        assert_bit_identical(pos, result.positions)

    def test_raising_finish_fails_the_job_not_the_runner(
        self, tmp_path, monkeypatch
    ):
        """A finish whose closing write raises (here the ledger's final
        row) resolves its handle with the typed error, and both runner
        threads live on to run the next job."""
        real_finished = RunLedger.record_finished
        writes = []

        def finished_broken_once(ledger, run_id, **fields):
            writes.append(run_id)
            if len(writes) == 1:
                raise CheckpointError("stored result is unreadable")
            return real_finished(ledger, run_id, **fields)

        monkeypatch.setattr(RunLedger, "record_finished", finished_broken_once)
        ledger = RunLedger(tmp_path / "ledger")
        svc = JobService(
            cache_dir=tmp_path / "cache", max_concurrent_jobs=2, ledger=ledger
        )
        try:
            bad = svc.submit(small_spec(seed=41))
            with pytest.raises(CheckpointError, match="unreadable"):
                bad.result(timeout=30)
            assert bad.status == "failed"
            threads = svc.scheduler._threads
            assert len(threads) == 2 and all(t.is_alive() for t in threads)
            good = svc.submit(small_spec(seed=42)).result(timeout=30)
        finally:
            svc.close()
        assert good.steps == small_spec().steps
        # The retried write records the failure with the buffered rows.
        row = ledger.run(bad.run_id)
        assert row["status"] == "failed" and row["started_s"] is not None
        assert sum(s["steps"] for s in ledger.slices(bad.run_id)) == 5
        ledger.close()

    @pytest.mark.parametrize("write", ["record_started", "record_finished"])
    def test_failing_ledger_never_strands_a_job(self, tmp_path, monkeypatch, write):
        """A job whose every ``write`` raises a sqlite error (a slice flush
        from the observer, or the final row) ends failed with a LedgerError
        wrapping it; both runners live on, and the tenant's slot is
        released once."""
        from repro.errors import LedgerError, QuotaError
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "LEDGER_FLUSH_S", 0)
        broken: set[int] = set()
        real = getattr(RunLedger, write)

        def raising(ledger, run_id, **fields):
            if run_id in broken:
                raise sqlite3.OperationalError("disk I/O error")
            return real(ledger, run_id, **fields)

        monkeypatch.setattr(RunLedger, write, raising)
        ledger = RunLedger(tmp_path / "ledger")
        capped = SubmitOptions(tenant="capped")
        svc = JobService(
            cache_dir=tmp_path / "cache", max_concurrent_jobs=2, ledger=ledger,
            tenants={"capped": {"max_inflight": 2}},
        )
        try:
            long = svc.submit(small_spec(seed=43, steps=400), options=capped)
            broken.add(long.run_id + 1)  # the next row: the job below
            bad = svc.submit(small_spec(seed=44, plan="i"), options=capped)
            assert bad.run_id in broken
            with pytest.raises(LedgerError, match="disk I/O") as info:
                bad.result(timeout=10)
            assert isinstance(info.value.__cause__, sqlite3.OperationalError)
            assert bad.status == "failed"
            assert svc.status(bad.spec_hash)["error"]["error"] == "LedgerError"
            threads = svc.scheduler._threads
            assert len(threads) == 2 and all(t.is_alive() for t in threads)
            # `long` holds one slot: exactly one more capped job is admitted.
            svc.submit(small_spec(seed=45, steps=400), options=capped)
            with pytest.raises(QuotaError, match="max_inflight"):
                svc.submit(small_spec(seed=46), options=capped)
        finally:
            svc.close(drain=False)
        assert long.wait(timeout=10) and long.status == "failed"
        ledger.close()

    def test_shared_pool_injection_left_open(self, tmp_path):
        with EnginePool(workers=2) as pool:
            svc = JobService(cache_dir=tmp_path, pool=pool)
            svc.run(small_spec())
            svc.close()
            # An injected pool survives service close for its owner.
            engine = pool.engine()
            assert engine.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_close_without_drain_fails_pending(self, tmp_path):
        svc = JobService(cache_dir=tmp_path, max_concurrent_jobs=1)
        handles = [
            svc.submit(small_spec(seed=200 + s, n=512, steps=100))
            for s in range(4)
        ]
        svc.close(drain=False)
        for h in handles:
            assert h.wait(timeout=30)
        assert any(h.status == "failed" for h in handles)
        with pytest.raises(ServeError, match="closed"):
            svc.submit(small_spec())

    def test_serve_metrics_and_span_emitted(self, tmp_path):
        with obs.capture() as (tracer, metrics):
            with connect(None, cache_dir=tmp_path) as service:
                service.run(small_spec(seed=31))
                service.run(small_spec(seed=31))  # cache hit
        assert metrics.get("serve.jobs_total").value == 2
        assert metrics.get("serve.cache_hits_total").value == 1
        assert metrics.get("serve.jobs_completed_total").value == 1
        assert metrics.get("serve.queue_depth") is not None
        assert any(s.name == "serve.job" for s in tracer.spans)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0])
    def test_wait_rejects_a_timeout_that_is_not_finite_and_non_negative(
        self, timeout
    ):
        spec = small_spec()
        handle = JobHandle(spec, JobRecord(spec.spec_hash(), "t"))  # never resolves
        with pytest.raises(ServeError, match="timeout must be"):
            handle.wait(timeout=timeout)
        with pytest.raises(ServeError, match="timeout must be"):
            handle.result(timeout=timeout)

    def test_wait_timeout_is_read_as_seconds_and_capped_to_the_platform(self):
        # A longer lock timeout raises OverflowError in threading's waits.
        assert check_timeout(1e300) == threading.TIMEOUT_MAX
        assert check_timeout("2.5") == 2.5  # an HTTP query value
        assert check_timeout(0) == 0.0
        assert check_timeout(None) is None


# ---------------------------------------------------------------------------
# Settings precedence
# ---------------------------------------------------------------------------

_cext = get_backend("cext")
_BACKENDS = [
    "numpy",
    pytest.param(
        "cext",
        marks=pytest.mark.skipif(
            not _cext.available,
            reason=f"cext backend unavailable: {_cext.unavailable_reason}",
        ),
    ),
]


@pytest.mark.parametrize("backend", _BACKENDS)
class TestAnswerFromMemory:
    """A run the service stepped answers from the session's own state,
    which equals what its cache entry reads back, array for array."""

    @staticmethod
    def _spec(backend, **kw):
        config = plan_config_to_dict(
            PlanConfig(softening=1e-2, kernel_backend=backend)
        )
        return small_spec(plan="i", plan_config=config, **kw)

    @staticmethod
    def _counting_loads(monkeypatch):
        loads = []
        real_load = ResultCache.load

        def load(cache, spec, *, from_cache):
            loads.append(spec.spec_hash())
            return real_load(cache, spec, from_cache=from_cache)

        monkeypatch.setattr(ResultCache, "load", load)
        return loads

    @staticmethod
    def _assert_same_result(result, stored):
        for name in ("positions", "velocities", "masses"):
            got = getattr(result.particles, name)
            want = getattr(stored.particles, name)
            assert got.dtype == want.dtype
            assert_bit_identical(want, got, context=name)
        assert result.time == stored.time
        assert result.record == stored.record
        assert result.run_dir == stored.run_dir

    def test_miss_equals_its_cache_entry(self, tmp_path, monkeypatch, backend):
        loads = self._counting_loads(monkeypatch)
        spec = self._spec(backend, seed=61)
        with JobService(cache_dir=tmp_path) as svc:
            miss = svc.submit(spec).result(timeout=60)
            assert loads == [] and not miss.from_cache
            hit = svc.submit(spec).result(timeout=60)
        assert hit.from_cache and loads == [spec.spec_hash()]
        self._assert_same_result(
            miss, load_result(spec, tmp_path / spec.spec_hash(), from_cache=True)
        )
        assert state_digest(hit.particles, hit.time) == state_digest(
            miss.particles, miss.time
        )

    def test_resumed_orphan_answers_from_memory(
        self, tmp_path, monkeypatch, backend
    ):
        spec = self._spec(backend, seed=62, steps=8)
        entry = ResultCache(tmp_path).entry_dir(spec)
        orphan = RunSession(
            spec.build_simulation(), entry, checkpoint_every=3, ledger=False
        )
        orphan.start(spec.steps)
        orphan.advance(4)  # checkpoint at step 3, then "killed"
        loads = self._counting_loads(monkeypatch)
        with JobService(cache_dir=tmp_path, resume_orphans=True) as svc:
            result = svc.submit(spec).result(timeout=60)
        assert loads == [] and not result.from_cache
        # resumed from the orphan's step-3 checkpoint, not re-run
        steps = [c.step for c in RunManifest.read(entry).checkpoints]
        assert steps == [3, 6, spec.steps]
        self._assert_same_result(
            result, load_result(spec, entry, from_cache=True)
        )
        pos, vel, t = solo_state(spec)
        assert_bit_identical(pos, result.positions, context="positions")
        assert_bit_identical(vel, result.velocities, context="velocities")
        assert result.time == t


class TestFinishedHandles:
    def test_finished_handle_releases_its_run(self, tmp_path, monkeypatch):
        """A kept handle holds its result, not its session, simulation,
        plan or engine; a finished hash is no longer cancellable."""
        sims = []
        real_build = JobSpec.build_simulation

        def build(spec, **kwargs):
            sim = real_build(spec, **kwargs)
            sims.append(weakref.ref(sim))
            return sim

        monkeypatch.setattr(JobSpec, "build_simulation", build)
        with JobService(cache_dir=tmp_path) as svc:
            handle = svc.submit(small_spec(seed=63))
            result = handle.result(timeout=60)
            assert handle.record.work is None
            for _ in range(100):
                # the runner thread drops its last reference between slices
                gc.collect()
                if sims[0]() is None:
                    break
                threading.Event().wait(0.02)
            assert sims[0]() is None
            assert svc.cancel(handle.spec_hash) is False
        assert handle.result() is result and result.steps == 5


class TestServeSettings:
    def test_defaults(self):
        assert resolve("max_concurrent_jobs") == 2
        assert resolve("queue_capacity") == 64

    def test_env_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_CONCURRENT_JOBS", "7")
        monkeypatch.setenv("REPRO_SERVE_CACHE_DIR", "/tmp/envcache")
        assert resolve("max_concurrent_jobs") == 7
        assert resolve("cache_dir") == "/tmp/envcache"
        assert resolve("queue_capacity") == 64

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_CONCURRENT_JOBS", "7")
        repro.configure(max_concurrent_jobs=3)
        assert resolve("max_concurrent_jobs") == 3

    def test_explicit_kwarg_beats_configure(self, tmp_path):
        repro.configure(max_concurrent_jobs=3, cache_dir=str(tmp_path / "c"))
        svc = JobService(max_concurrent_jobs=5)
        try:
            assert svc.max_concurrent_jobs == 5
            assert svc.cache_dir == str(tmp_path / "c")
        finally:
            svc.close()

    def test_validation(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve("max_concurrent_jobs", 0)
        with pytest.raises(ConfigurationError):
            resolve("queue_capacity", 0)
        monkeypatch.setenv("REPRO_SERVE_QUEUE_CAPACITY", "zap")
        with pytest.raises(ConfigurationError, match="integer"):
            resolve("queue_capacity")
        monkeypatch.delenv("REPRO_SERVE_QUEUE_CAPACITY")
        with pytest.raises(ConfigurationError):
            repro.configure(queue_capacity=-1)
        # the failed configure must not leave partial state
        assert resolve("queue_capacity") == 64


# ---------------------------------------------------------------------------
# Scheduler edge cases
# ---------------------------------------------------------------------------

class _FakeJob:
    def __init__(self, slices_needed=1):
        self.left = slices_needed
        self.events = []

    def begin(self):
        self.events.append("begin")

    def advance(self, k):
        self.left -= 1
        self.events.append("advance")
        return self.left <= 0

    def finish(self):
        self.events.append("finish")

    def fail(self, exc):
        self.events.append(("fail", type(exc).__name__))


class TestScheduler:
    def test_drain_completes_all(self):
        q = FairJobQueue(capacity=16)
        jobs = [_FakeJob(slices_needed=3) for _ in range(6)]
        for j in jobs:
            q.push(j)
        sched = Scheduler(q, max_live=2, steps_per_slice=1)
        sched.start()
        sched.stop(drain=True, timeout=30)
        assert all(j.events[-1] == "finish" for j in jobs)
        assert sched.slices == 18

    def test_begin_failure_routes_to_fail(self):
        class ExplodingJob(_FakeJob):
            def begin(self):
                raise RuntimeError("boom")

        q = FairJobQueue(capacity=4)
        job = ExplodingJob()
        q.push(job)
        sched = Scheduler(q, max_live=1)
        sched.start()
        sched.stop(drain=True, timeout=30)
        assert ("fail", "RuntimeError") in job.events

    def test_abort_fails_leftovers(self):
        q = FairJobQueue(capacity=16)
        jobs = [_FakeJob(slices_needed=10_000) for _ in range(4)]
        for j in jobs:
            q.push(j)
        sched = Scheduler(q, max_live=1, steps_per_slice=1)
        sched.start()
        sched.stop(drain=False, timeout=30)
        assert any(("fail", "ServeError") in j.events for j in jobs)
