"""The batched job service: admission, dedup, caching, execution.

:class:`JobService` ties the serve layer together: submissions pass
admission control on a bounded :class:`~repro.serve.FairJobQueue`, identical
in-flight specs coalesce onto one :class:`JobHandle`, completed specs are
answered straight from the content-addressed
:class:`~repro.serve.ResultCache`, and everything that actually runs is
step-sliced by the :class:`~repro.serve.Scheduler` over one shared
:class:`~repro.exec.EnginePool`.

Fault domains are per job: each job gets its own
:class:`~repro.exec.ExecutionEngine` (vended from the shared pool) with
its own retry policy and fault injector, so an injected or real failure
is retried in, or fails, *that* job while siblings keep their pool and
their bit-identical results.

Observability: every submission bumps ``serve.jobs_total``; cache
answers bump ``serve.cache_hits_total``; coalesced submissions bump
``serve.dedup_total``; rejections bump ``serve.rejected_total``; the
pending count is mirrored to the ``serve.queue_depth`` gauge; and each
executed job records a ``serve.job`` span (worker-measured interval) on
completion.  Per-plan labeled timeseries ride alongside the totals:
``serve.jobs_total``/``serve.slices_total`` counters and the
``serve.queue_wait_seconds``/``serve.slice_seconds`` bounded-reservoir
histograms, all labeled ``{plan=...}``.

Durability: when a run ledger is configured
(``repro.configure(ledger_dir=...)`` / ``REPRO_LEDGER_DIR`` / the
``ledger=`` keyword), the service records every submission, queue wait,
executed slice, cache hit, dedup, retry count and final status to
SQLite through the scheduler's ``slice_observer`` seam — pure
observation, so batched results stay bit-identical to solo runs.  The
``repro-nbody top`` and ``report`` commands read that ledger.

:class:`Client` is the ergonomic front end, and
:func:`repro.serve.connect` is the one public way to obtain one —
in-process or against a coordinator, same verbs either way::

    from repro.serve import JobSpec, connect

    with connect() as client:          # in-process service
        handles = [client.submit(JobSpec(n=2048, plan=p, steps=50))
                   for p in ("i", "j", "w", "jw")]
        results = [h.result() for h in handles]

Sharding: a service created with ``shard=`` stamps that shard name onto
every ledger row it writes (the provenance column ``merge-shards``
relies on), and ``resume_orphans=True`` lets it adopt incomplete cache
entries left by a killed sibling shard — resuming from the orphan's last
checkpoint instead of starting over, bit-identical by the runtime's
resume guarantee.

Tenancy: every submission lands in a tenant bucket (from
:class:`~repro.serve.SubmitOptions`, else the service's default tenant)
and the queue is a :class:`~repro.serve.FairJobQueue` — weighted fair
across tenants with deterministic priority aging, so one tenant's bulk
sweep cannot starve another's interactive probe.  Per-tenant
``max_queued`` / ``max_inflight`` quotas shed excess load with
:class:`~repro.errors.QuotaError` before it can crowd the queue, and
ledger rows carry the tenant for per-tenant accounting.  Submission
tuning itself is unified in :class:`~repro.serve.SubmitOptions`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro import obs
from repro.check.guards import RunGuard
from repro.check.invariants import TolerancePolicy
from repro.config import resolve
from repro.errors import JobCancelledError, QuotaError, ServeError
from repro.exec.engine import EnginePool, ExecutionEngine
from repro.obs.ledger import RunLedger, default_ledger
from repro.runtime.session import RunSession
from repro.serve.cache import JobResult, ResultCache
from repro.serve.options import SubmitOptions
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DESCRIBE_VERSION
from repro.serve.spec import JobSpec
from repro.serve.tenancy import DEFAULT_TENANT, FairJobQueue, TenantPolicy

__all__ = ["Client", "JobHandle", "JobService"]


class JobHandle:
    """A submitted job's future: status, result, completion wait."""

    def __init__(self, spec: JobSpec, spec_hash: str) -> None:
        self.spec = spec
        self.spec_hash = spec_hash
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        #: "queued" | "running" | "complete" | "failed" | "cancelled"
        self.status = "queued"
        #: submissions coalesced onto this handle beyond the first
        self.dedup_count = 0
        #: run ledger row backing this submission (None when unledgered)
        self.run_id: int | None = None
        #: fair-scheduling bucket this submission landed in
        self.tenant: str | None = None
        #: backing _Job while in flight (cancellation seam; None for
        #: cache-hit handles, which are born resolved)
        self._job: "_Job | None" = None

    # -- resolution (service-internal) ---------------------------------
    def _resolve(self, result: JobResult) -> None:
        self._result = result
        self.status = "complete"
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self.status = (
            "cancelled" if isinstance(error, JobCancelledError) else "failed"
        )
        self._done.set()

    # -- waiting -------------------------------------------------------
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout=timeout)

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the result; re-raises the job's failure if it died."""
        if not self._done.wait(timeout=timeout):
            raise ServeError(
                f"job {self.spec_hash[:12]} not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def error(self) -> BaseException | None:
        return self._error

    @property
    def from_cache(self) -> bool:
        return self._result is not None and self._result.from_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.spec_hash[:12]}, status={self.status})"


class _Job:
    """Scheduler work unit: owns one session, engine, and handle."""

    def __init__(
        self,
        service: "JobService",
        spec: JobSpec,
        handle: JobHandle,
        *,
        options: SubmitOptions,
    ) -> None:
        self.service = service
        self.spec = spec
        self.handle = handle
        self.options = options
        self.tenant = options.tenant or DEFAULT_TENANT
        self.retry = options.retry
        self.fault_injector = options.fault_injector
        self.verify = options.verify
        #: set by JobService.cancel(); checked at every slice boundary
        self.cancel_event = threading.Event()
        self.engine: ExecutionEngine | None = None
        self.session: RunSession | None = None
        self._t0 = 0.0
        #: ledger row of this job (None when ledgering is off)
        self.run_id: int | None = None
        #: steps advanced by the most recent scheduler slice
        self.last_slice_steps = 0
        self._slice_seq = 0
        self._submitted_at = time.time()
        self._retries = 0
        #: set when another shard completed the spec before we could run
        self._from_cache = False

    # -- scheduler protocol --------------------------------------------
    def begin(self) -> None:
        if self.cancel_event.is_set():
            # Cancelled after the pop but before admission finished.
            raise JobCancelledError(
                f"job {self.spec_hash12} cancelled before it started"
            )
        self._t0 = time.perf_counter()
        self.handle.status = "running"
        service = self.service
        if service.resume_orphans:
            run_dir, mode = service.cache.claim_or_resume(self.spec)
        else:
            run_dir, mode = service.cache.claim(self.spec), "fresh"
        if mode == "complete":
            # Another shard completed this spec between our cache lookup
            # and the claim — serve its result instead of re-running.
            self._from_cache = True
            service._note_dequeued()
            return
        self.engine = service.pool.engine(
            retry=self.retry, fault_injector=self.fault_injector
        )
        if mode == "resume":
            # A killed sibling's orphan: continue from its last
            # checkpoint.  Bit-identical to a fresh run by the runtime's
            # resume guarantee, and strictly less work.
            self.session = RunSession.resume(
                run_dir,
                engine=self.engine,
                guard=self._resolve_guard(),
                ledger=False,
            )
            obs.inc("serve.orphan_resumes_total")
            if service.ledger is not None and self.run_id is not None:
                service.ledger.record_event(
                    "orphan_resume", self.spec_hash12, run_id=self.run_id
                )
        else:
            sim = self.spec.build_simulation(engine=self.engine)
            # ledger=False: the service records this job itself (queue
            # wait, slices, status) — a session-level ledger row would
            # double it.
            self.session = RunSession(
                sim,
                run_dir,
                checkpoint_every=self.spec.checkpoint_every,
                guard=self._resolve_guard(),
                ledger=False,
            )
        self.session.start(self.spec.steps)
        queue_wait = max(0.0, time.time() - self._submitted_at)
        obs.observe(
            "serve.queue_wait_seconds", queue_wait,
            labels={"plan": self.spec.plan},
        )
        if self.service.ledger is not None and self.run_id is not None:
            self.service.ledger.record_started(
                self.run_id,
                backend=self.engine.effective_backend,
                checkpoint_dir=str(run_dir),
            )
        self.service._note_dequeued()

    def _resolve_guard(self) -> "RunGuard | bool | None":
        """This job's guard: per-submit ``verify`` wins over the service's.

        ``None`` falls through to the session default
        (``repro.configure(verify=...)`` / ``REPRO_CHECK_*``).
        """
        verify = self.verify if self.verify is not None else self.service.verify
        if verify is None or isinstance(verify, bool):
            return verify
        if isinstance(verify, RunGuard):
            return verify
        if isinstance(verify, TolerancePolicy):
            return RunGuard(policy=verify)
        raise ServeError(
            f"verify must be a bool, TolerancePolicy or RunGuard, "
            f"got {type(verify).__name__}"
        )

    def advance(self, max_steps: int) -> bool:
        if self.cancel_event.is_set():
            # Slice boundary is the cancellation point: the in-flight
            # slice ran to completion (bit-exact state), and fail() will
            # release the cache claim so nothing half-done lingers.
            raise JobCancelledError(f"job {self.spec_hash12} cancelled")
        if self._from_cache:
            self.last_slice_steps = 0
            return True
        assert self.session is not None
        before = self.session.simulation.record.steps
        done = self.session.advance(max_steps)
        self.last_slice_steps = self.session.simulation.record.steps - before
        return done

    def verify_slice(self, done: bool) -> None:
        """Scheduler slice hook: invariant check at slice granularity.

        Skipped once the session is complete — the final checkpoint
        already verified the final state.
        """
        if done or self.session is None or self.session.guard is None:
            return
        guard = self.session.guard
        if guard.primed:
            guard.check(self.session.simulation, where="slice")

    def finish(self) -> None:
        result = self.service.cache.load(self.spec, from_cache=self._from_cache)
        self._close_engine()
        obs.complete_span(
            "serve.job",
            self._t0,
            time.perf_counter(),
            spec=self.spec_hash12,
            plan=self.spec.plan,
            n=self.spec.n,
            steps=self.spec.steps,
        )
        self.service._job_finished(self, result=result)

    def fail(self, exc: BaseException) -> None:
        self._close_engine()
        if isinstance(exc, JobCancelledError) and self.session is not None:
            # Release the cache claim: a cancelled run's partial
            # checkpoints must not be adoptable as a resumable orphan —
            # a later identical submission starts fresh.
            self.session = None
            self.service.cache.evict(self.spec)
        self.service._job_finished(self, error=exc)

    # -- helpers -------------------------------------------------------
    def _close_engine(self) -> None:
        if self.engine is not None:
            # Retry accounting must survive the engine teardown.
            self._retries = self.engine.retries_total
            self.engine.close()
            self.engine = None

    @property
    def spec_hash12(self) -> str:
        return self.handle.spec_hash[:12]


class JobService:
    """Batched execution of :class:`JobSpec` jobs over a shared pool.

    Keyword arguments override :func:`repro.configure` values, which
    override ``REPRO_SERVE_*`` environment variables, which override the
    defaults (see :mod:`repro.config`).  ``pool`` injects an
    existing :class:`~repro.exec.EnginePool` (the service then does not
    close it); otherwise a thread-backed pool with ``pool_workers``
    workers is created and owned.

    ``shard`` names this service's fault domain — every ledger row it
    writes carries the name, so a merged multi-shard database keeps
    per-shard provenance.  ``resume_orphans=True`` lets the service adopt
    incomplete cache entries (a killed sibling shard's half-finished
    runs) by resuming from their last checkpoint.

    ``tenants`` maps tenant names to :class:`~repro.serve.TenantPolicy`
    (or plain dicts) — scheduling weight plus ``max_queued`` /
    ``max_inflight`` quotas; unnamed tenants get an unbounded weight-1
    default.  ``default_tenant`` is the bucket for submissions whose
    :class:`~repro.serve.SubmitOptions` name none (settings chain:
    explicit > ``configure(tenant=)`` > ``REPRO_TENANT`` >
    ``"default"``).  ``aging_every`` / ``age_max_boost`` tune the
    deterministic priority aging (see :mod:`repro.serve.tenancy`).

    Applications get a client over a new service from
    :func:`repro.serve.connect`; the constructor is what ``connect``,
    :class:`~repro.serve.Worker` and :class:`~repro.serve.Gateway` call.
    """

    def __init__(
        self,
        *,
        max_concurrent_jobs: int | None = None,
        queue_capacity: int | None = None,
        cache_dir: str | Path | None = None,
        pool: EnginePool | None = None,
        pool_workers: int = 2,
        runner_threads: int | None = None,
        steps_per_slice: int = 8,
        verify: "bool | TolerancePolicy | None" = None,
        ledger: "RunLedger | bool | None" = None,
        shard: str | None = None,
        resume_orphans: bool = False,
        tenants: "dict[str, TenantPolicy | dict[str, Any]] | None" = None,
        default_tenant: str | None = None,
        aging_every: int = 8,
        age_max_boost: int = 8,
    ) -> None:
        #: fault-domain name stamped onto this service's ledger rows
        self.shard = shard
        #: adopt killed siblings' incomplete cache entries via resume
        self.resume_orphans = resume_orphans
        #: live sessions the scheduler keeps at once
        self.max_concurrent_jobs = resolve("max_concurrent_jobs", max_concurrent_jobs)
        #: queued-but-not-live submissions before AdmissionError
        self.queue_capacity = resolve("queue_capacity", queue_capacity)
        #: result-cache root
        self.cache_dir = str(resolve("cache_dir", cache_dir))
        #: bucket for submissions that name no tenant
        self.default_tenant = resolve("tenant", default_tenant) or DEFAULT_TENANT
        self.cache = ResultCache(self.cache_dir)
        self.queue = FairJobQueue(
            self.queue_capacity,
            tenants=tenants,
            aging_every=aging_every,
            age_max_boost=age_max_boost,
        )
        self._own_pool = pool is None
        self.pool = pool or EnginePool(workers=pool_workers)
        #: service-wide verification default (per-submit ``verify`` wins)
        self.verify = verify
        #: durable run ledger (None when ledgering is off); resolved with
        #: the usual precedence: explicit > configure() > env > off
        if ledger is None:
            self.ledger: RunLedger | None = default_ledger()
        elif ledger is False:
            self.ledger = None
        elif isinstance(ledger, RunLedger):
            self.ledger = ledger
        else:
            raise ServeError(
                f"ledger must be a RunLedger, False or None, "
                f"got {type(ledger).__name__}"
            )
        self.scheduler = Scheduler(
            self.queue,
            max_live=self.max_concurrent_jobs,
            runner_threads=runner_threads,
            steps_per_slice=steps_per_slice,
            slice_hook=lambda job, done: job.verify_slice(done),
            slice_observer=self._observe_slice,
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, JobHandle] = {}
        #: admitted-but-unfinished jobs per tenant (max_inflight quota)
        self._tenant_inflight: dict[str, int] = {}
        #: gateway/SSE seam: callables fed slice + completion events
        self._listeners: list[Any] = []
        self._closed = False
        #: submission counters (also mirrored into repro.obs)
        self.jobs_submitted = 0
        self.cache_hits = 0
        self.deduped = 0
        self.jobs_cancelled = 0
        self.scheduler.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        options: SubmitOptions | None = None,
    ) -> JobHandle:
        """Admit one job; returns immediately with its handle.

        ``options`` is the one submission-tuning surface
        (:class:`~repro.serve.SubmitOptions`: priority, tenant, retry,
        fault_injector, verify).

        Order of resolution: an identical in-flight spec coalesces onto
        the existing handle; a completed cache entry resolves instantly;
        otherwise the tenant's quotas and the queue's capacity admit or
        shed it (:class:`~repro.errors.QuotaError` /
        :class:`~repro.errors.AdmissionError`).  ``options.priority``
        orders queued jobs within a tenant (higher first, FIFO within,
        deterministic aging across waits); ``options.retry`` /
        ``options.fault_injector`` configure this job's private engine
        and touch no other job; ``options.verify`` guards *this* job's
        invariants every scheduler slice and checkpoint, failing the
        handle with :class:`~repro.errors.VerificationError` on
        violation (default: the service-wide ``verify`` setting).
        """
        opts = (options or SubmitOptions()).with_defaults(
            tenant=self.default_tenant
        )
        if not isinstance(spec, JobSpec):
            raise ServeError(
                f"submit() takes a JobSpec, got {type(spec).__name__}"
            )
        spec_hash = spec.spec_hash()
        tenant = opts.tenant or DEFAULT_TENANT
        with self._lock:
            if self._closed:
                raise ServeError("service is closed")
            self.jobs_submitted += 1
            obs.inc("serve.jobs_total")
            obs.inc("serve.jobs_total", labels={"plan": spec.plan})
            obs.inc("serve.jobs_total", labels={"tenant": tenant})
            existing = self._inflight.get(spec_hash)
            if existing is not None:
                existing.dedup_count += 1
                self.deduped += 1
                obs.inc("serve.dedup_total")
                if self.ledger is not None and existing.run_id is not None:
                    self.ledger.bump_dedup(existing.run_id)
                    self.ledger.record_event(
                        "dedup", spec_hash[:12], run_id=existing.run_id
                    )
                return existing
            cached = self.cache.lookup(spec)
            if cached is not None:
                self.cache_hits += 1
                obs.inc("serve.cache_hits_total")
                handle = JobHandle(spec, spec_hash)
                handle.tenant = tenant
                handle._resolve(cached)
                if self.ledger is not None:
                    run_id = self.ledger.record_submitted(
                        source="serve",
                        **self._spec_fields(spec, spec_hash, tenant),
                    )
                    handle.run_id = run_id
                    self.ledger.record_finished(
                        run_id,
                        status="cached",
                        from_cache=True,
                        checkpoint_dir=str(cached.run_dir),
                    )
                    self.ledger.record_event(
                        "cache_hit", spec_hash[:12], run_id=run_id
                    )
                return handle
            policy = self.queue.policy_for(tenant)
            if (
                policy.max_inflight is not None
                and self._tenant_inflight.get(tenant, 0) >= policy.max_inflight
            ):
                obs.inc("serve.rejected_total")
                obs.inc("serve.rejected_total", labels={"tenant": tenant})
                raise QuotaError(
                    f"tenant {tenant!r} at max_inflight "
                    f"({policy.max_inflight} admitted jobs); retry after "
                    "some finish",
                    tenant=tenant,
                )
            handle = JobHandle(spec, spec_hash)
            handle.tenant = tenant
            job = _Job(self, spec, handle, options=opts)
            handle._job = job
            if self.ledger is not None:
                job.run_id = self.ledger.record_submitted(
                    source="serve", **self._spec_fields(spec, spec_hash, tenant)
                )
                handle.run_id = job.run_id
            try:
                self.queue.push(job, priority=opts.priority, tenant=tenant)
            except Exception as exc:
                obs.inc("serve.rejected_total")
                obs.inc("serve.rejected_total", labels={"tenant": tenant})
                if self.ledger is not None and job.run_id is not None:
                    self.ledger.record_finished(
                        job.run_id, status="failed",
                        error=f"{type(exc).__name__}: rejected by admission "
                        "control",
                    )
                raise
            self._inflight[spec_hash] = handle
            self._tenant_inflight[tenant] = (
                self._tenant_inflight.get(tenant, 0) + 1
            )
            obs.set_gauge("serve.queue_depth", len(self.queue))
            return handle

    def _spec_fields(
        self, spec: JobSpec, spec_hash: str, tenant: str | None = None
    ) -> dict[str, Any]:
        """Ledger ``runs`` columns carrying the spec's identity."""
        fields: dict[str, Any] = {
            "spec_hash": spec_hash,
            "workload": spec.workload,
            "n": spec.n,
            "seed": spec.seed,
            "plan": spec.plan,
            "dt": spec.dt,
            "steps": spec.steps,
        }
        if self.shard is not None:
            fields["shard"] = self.shard
        if tenant is not None:
            fields["tenant"] = tenant
        return fields

    def submit_many(
        self,
        specs: Iterable[JobSpec],
        *,
        options: SubmitOptions | None = None,
    ) -> list[JobHandle]:
        """Submit a batch; handles come back in submission order."""
        return [self.submit(s, options=options) for s in specs]

    def run(
        self,
        spec: JobSpec,
        *,
        options: SubmitOptions | None = None,
        timeout: float | None = None,
    ) -> JobResult:
        """Submit and block for the result."""
        return self.submit(spec, options=options).result(timeout=timeout)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, spec_hash: str) -> bool:
        """Cancel an in-flight job by spec hash; returns whether it took.

        A queued job is plucked from the queue and failed immediately; a
        running job stops at its next slice boundary.  Either way the
        handle fails with :class:`~repro.errors.JobCancelledError`, the
        job's result-cache claim is released (no orphan claims — a later
        identical submission starts fresh), and coalesced waiters see the
        same cancellation.  Returns ``False`` when the hash is unknown or
        the job already finished.
        """
        with self._lock:
            handle = self._inflight.get(spec_hash)
        if handle is None or handle.done():
            return False
        job = handle._job
        if job is None:
            return False
        job.cancel_event.set()
        removed = self.queue.remove(lambda item: item is job)
        self.jobs_cancelled += 1
        obs.inc("serve.cancelled_total")
        obs.set_gauge("serve.queue_depth", len(self.queue))
        if removed:
            # Never admitted: fail it ourselves (the scheduler will
            # never see it).
            job.fail(
                JobCancelledError(
                    f"job {spec_hash[:12]} cancelled while queued"
                )
            )
        # else: running (or mid-admission) — the cancel event fails it at
        # the next slice boundary / begin() check.
        return True

    # ------------------------------------------------------------------
    # scheduler callbacks
    # ------------------------------------------------------------------
    def _note_dequeued(self) -> None:
        obs.set_gauge("serve.queue_depth", len(self.queue))

    def _observe_slice(self, job: _Job, done: bool, wall_s: float) -> None:
        """Scheduler ``slice_observer``: labeled telemetry + ledger row.

        Pure observation — never raises into the run path, never mutates
        the job beyond its slice counter.
        """
        plan = job.spec.plan
        obs.inc("serve.slices_total", labels={"plan": plan})
        obs.observe("serve.slice_seconds", wall_s, labels={"plan": plan})
        if (
            self.ledger is not None
            and job.run_id is not None
            and job.last_slice_steps > 0
        ):
            job._slice_seq += 1
            self.ledger.record_slice(
                job.run_id,
                seq=job._slice_seq,
                steps=job.last_slice_steps,
                wall_s=wall_s,
            )
        self._emit_event(
            {
                "type": "slice",
                "spec_hash": job.handle.spec_hash,
                "tenant": job.tenant,
                "seq": job._slice_seq,
                "steps": job.last_slice_steps,
                "done": done,
                "wall_s": wall_s,
            }
        )

    # -- event listeners (gateway/SSE seam) -----------------------------
    def add_slice_listener(self, fn: Any) -> Any:
        """Register a callable fed slice + completion event dicts.

        Listeners are pure observers: exceptions are swallowed, and
        events fire on scheduler runner threads (bridge to your own loop
        if you need one).  Returns a zero-argument remover.
        """
        with self._lock:
            self._listeners.append(fn)

        def remove() -> None:
            with self._lock:
                try:
                    self._listeners.remove(fn)
                except ValueError:
                    pass

        return remove

    def _emit_event(self, event: dict[str, Any]) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for fn in listeners:
            try:
                fn(event)
            except Exception:  # noqa: BLE001 - observers never raise upward
                pass

    def _job_finished(
        self,
        job: _Job,
        *,
        result: JobResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        tenant = job.tenant
        with self._lock:
            self._inflight.pop(job.handle.spec_hash, None)
            remaining = self._tenant_inflight.get(tenant, 0) - 1
            if remaining > 0:
                self._tenant_inflight[tenant] = remaining
            else:
                self._tenant_inflight.pop(tenant, None)
            obs.set_gauge("serve.queue_depth", len(self.queue))
        if error is not None:
            obs.inc("serve.jobs_failed_total")
            obs.inc("serve.jobs_failed_total", labels={"tenant": tenant})
            self._ledger_finish(job, error=error)
            job.handle._reject(error)
        else:
            assert result is not None
            obs.inc("serve.jobs_completed_total")
            obs.inc("serve.jobs_completed_total", labels={"tenant": tenant})
            self._ledger_finish(job, result=result)
            job.handle._resolve(result)
        self._emit_event(
            {
                "type": "finished",
                "spec_hash": job.handle.spec_hash,
                "tenant": tenant,
                "status": job.handle.status,
                "error": None if error is None else f"{type(error).__name__}: {error}",
            }
        )

    def _ledger_finish(
        self,
        job: _Job,
        *,
        result: JobResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Finalise the job's ledger row (observer: never raises upward)."""
        if self.ledger is None or job.run_id is None:
            return
        fields: dict[str, Any] = {
            "wall_s": time.perf_counter() - job._t0,
            "retries": job._retries,
        }
        if error is not None:
            fields["error"] = f"{type(error).__name__}: {error}"
            report = getattr(error, "report", None)
            if report is not None:
                fields["invariant_report"] = repr(report)
            self.ledger.record_finished(job.run_id, status="failed", **fields)
            return
        assert result is not None
        record = result.record  # serialised SimulationRecord (a dict)
        fields["simulated_s"] = record.get("simulated_seconds")
        fields["force_passes"] = record.get("force_passes")
        if result.from_cache:
            # Raced another shard to completion — record as a cache
            # answer, not a run this service executed.
            fields["from_cache"] = True
            fields["checkpoint_dir"] = str(result.run_dir)
            self.ledger.record_finished(job.run_id, status="cached", **fields)
            return
        snapshot = obs.metrics().snapshot()
        metrics = {
            k: v for k, v in sorted(snapshot.items())
            if k.startswith("serve.") or k.startswith("task_")
        }
        self.ledger.record_finished(
            job.run_id, status="complete", metrics=metrics, **fields
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down: ``drain=True`` finishes queued work first.

        Idempotent.  With ``drain=False`` every unfinished handle fails
        with :class:`ServeError`.  An injected ``pool`` is left open for
        its owner; an owned pool is closed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.stop(drain=drain, timeout=timeout)
        if self._own_pool:
            self.pool.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def describe(self) -> dict[str, Any]:
        """Introspection snapshot (versioned: see :mod:`repro.serve.schema`)."""
        return {
            "describe_version": DESCRIBE_VERSION,
            "kind": "service",
            "settings": {
                "max_concurrent_jobs": self.max_concurrent_jobs,
                "queue_capacity": self.queue_capacity,
                "cache_dir": self.cache_dir,
            },
            "pool": self.pool.describe(),
            "queue_depth": len(self.queue),
            "queue_depth_by_tenant": self.queue.depth_by_tenant(),
            "tenants": {
                name: asdict(policy)
                for name, policy in sorted(self.queue.policies.items())
            },
            "default_tenant": self.default_tenant,
            "live": self.scheduler.live,
            "jobs_submitted": self.jobs_submitted,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "cancelled": self.jobs_cancelled,
            "ledger": None if self.ledger is None else str(self.ledger.path),
            "shard": self.shard,
            "resume_orphans": self.resume_orphans,
            "closed": self._closed,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobService(queue={len(self.queue)}, live={self.scheduler.live}, "
            f"submitted={self.jobs_submitted}, closed={self._closed})"
        )


class Client:
    """Convenience front end over a service.

    ``service`` is an in-process :class:`JobService` or a
    :class:`~repro.serve.remote.RemoteService` — anything speaking the
    service protocol (``submit``/``cancel``/``describe``/``close``) —
    so call sites never branch on transport.  With ``own=True`` the
    client's ``close`` also closes the service; a shared service stays
    open.  :func:`repro.serve.connect` is the way to get a client that
    owns a new service.
    """

    def __init__(self, service: Any, *, own: bool = False) -> None:
        self._own_service = own
        self.service = service

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec | None = None,
        /,
        *,
        options: SubmitOptions | None = None,
        **spec_kwargs: Any,
    ) -> JobHandle:
        """Submit a spec, or build one from keyword arguments.

        ``options=SubmitOptions(...)`` is the submission-tuning surface.
        The remaining keywords construct the :class:`JobSpec` when no
        spec object is given.
        """
        if spec is None:
            spec = JobSpec(**spec_kwargs)
        elif spec_kwargs:
            raise ServeError(
                "pass either a JobSpec or spec keyword arguments, not both"
            )
        return self.service.submit(spec, options=options)

    def run(
        self,
        spec: JobSpec | None = None,
        /,
        *,
        options: SubmitOptions | None = None,
        timeout: float | None = None,
        **spec_kwargs: Any,
    ) -> JobResult:
        """Submit and block for the result."""
        return self.submit(spec, options=options, **spec_kwargs).result(
            timeout=timeout
        )

    def map(
        self, specs: Sequence[JobSpec], *,
        options: SubmitOptions | None = None,
        timeout: float | None = None,
    ) -> list[JobResult]:
        """Submit a batch and wait for every result, in order."""
        handles = [self.service.submit(s, options=options) for s in specs]
        return [h.result(timeout=timeout) for h in handles]

    def cancel(self, spec_hash: str) -> bool:
        """Cancel an in-flight job by spec hash (see :meth:`JobService.cancel`)."""
        return self.service.cancel(spec_hash)

    def describe(self) -> dict[str, Any]:
        """The backing service's introspection snapshot."""
        return self.service.describe()

    def close(self, *, drain: bool = True) -> None:
        if self._own_service:
            self.service.close(drain=drain)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Client({self.service!r})"
