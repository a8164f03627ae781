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
observation, so batched results stay bit-identical to solo runs.  A job
commits twice: its accepted row at submit, durable before ``submit``
returns, so after a crash the ledger still shows which accepted jobs
never finished; and its final row, written in one transaction with the
started stamp and slice rows the job buffered while it ran.  A job still
running after :data:`LEDGER_FLUSH_S` writes its buffered rows early, at
most once per interval, so ``top`` shows its progress; a cache hit is
one transaction.  The ``repro-nbody top`` and ``report`` commands read
that ledger.

A job the service stepped answers from its session's final state —
the arrays its final checkpoint has just written byte for byte — and
reads nothing back; a hit, or a claim another shard completed first,
loads the stored checkpoint.

Jobs live in one :class:`~repro.serve.jobs.JobTable`: a record per spec
hash with its status (``queued``, ``running``, ``complete``, ``failed``,
``cancelled``) and outcome, including the final state's
``state_sha256``, computed once where that state is in memory.
:meth:`JobService.status` and :meth:`JobService.wait` answer from the
record, for the live jobs and the last ``KEEP_FINISHED`` finished ones;
an older hash raises :class:`~repro.errors.UnknownJobError`.  The
:class:`JobHandle` a submitter holds keeps the result or the exception;
a finished record keeps neither.  A ledger write that raises as a job
finishes (a full or failing disk) fails the job with a
:class:`~repro.errors.LedgerError` instead of stranding it.

:func:`repro.serve.connect` is the one public way to obtain a service:
it returns a :class:`JobService` in-process, or a
:class:`~repro.serve.RemoteService` against a coordinator, with the same
verbs either way::

    from repro.serve import JobSpec, connect

    with connect() as service:          # in-process service
        handles = [service.submit(JobSpec(n=2048, plan=p, steps=50))
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
sweep cannot starve another's interactive probe.  The queue is also
where admission is decided: per-tenant ``max_inflight`` /
``max_queued`` quotas and the queue capacity shed excess load with
:class:`~repro.errors.QuotaError` / :class:`~repro.errors.AdmissionError`,
and the job table releases a job's ``max_inflight`` slot exactly once,
when the job completes, fails or is cancelled.  Ledger rows carry the
tenant for per-tenant accounting.  Submission tuning itself is unified
in :class:`~repro.serve.SubmitOptions`.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator

from repro import obs
from repro.check.guards import RunGuard
from repro.check.invariants import TolerancePolicy
from repro.config import resolve
from repro.errors import JobCancelledError, LedgerError, ServeError
from repro.exec.engine import EnginePool, ExecutionEngine
from repro.obs.ledger import RunLedger, resolve_ledger
from repro.runtime.session import RunSession
from repro.serve.cache import JobResult, ResultCache
from repro.serve.jobs import JobRecord, JobTable, completed, failed
from repro.serve.options import SubmitOptions, check_timeout
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DESCRIBE_VERSION
from repro.serve.spec import JobSpec
from repro.serve.tenancy import DEFAULT_TENANT, FairJobQueue, TenantPolicy

__all__ = ["JobHandle", "JobService", "LEDGER_FLUSH_S"]

#: Seconds a running job keeps its started stamp and slice rows in memory
#: before writing them to the run ledger ahead of its final row; a job
#: that finishes sooner writes them with that row, in one transaction.
LEDGER_FLUSH_S = 1.0


class JobHandle:
    """A submitted job's future: its result or its exception.

    Status, dedup count and tenant are read from the job's
    :class:`~repro.serve.jobs.JobRecord`; a coalesced submission gets
    the same handle while the job is live.
    """

    def __init__(self, spec: JobSpec, record: JobRecord) -> None:
        self.spec = spec
        self.record = record
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        #: run ledger row backing this submission (None when unledgered)
        self.run_id: int | None = None

    @property
    def spec_hash(self) -> str:
        return self.record.spec_hash

    @property
    def status(self) -> str:
        """``queued``, ``running``, ``complete``, ``failed`` or ``cancelled``."""
        return self.record.status

    @property
    def dedup_count(self) -> int:
        return self.record.dedup_count

    @property
    def tenant(self) -> str:
        return self.record.tenant

    # -- waiting -------------------------------------------------------
    def done(self) -> bool:
        return self.record.done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self.record.done.wait(timeout=check_timeout(timeout))

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the result; re-raises the job's failure if it died."""
        if not self.wait(timeout=timeout):
            raise ServeError(
                f"job {self.spec_hash[:12]} not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def error(self) -> BaseException | None:
        return self._error

    @property
    def from_cache(self) -> bool:
        return self.record.from_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec_hash[:12]}, status={self.status})"


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
        #: ledger rows not yet written: the started stamp (keywords of
        #: RunLedger.record_started) and (seq, steps, wall_s, at_s) slices
        self._started: dict[str, Any] | None = None
        self._slices: list[tuple[int, int, float, float]] = []
        self._flushed_at = 0.0
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
        service = self.service
        service.jobs.set_status(self.handle.record, "running")
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
        self._started = {
            "at_s": time.time(),
            "backend": self.engine.effective_backend,
            "checkpoint_dir": str(run_dir),
        }
        self._flushed_at = time.perf_counter()
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
        if self._from_cache:
            result = self.service.cache.load(self.spec, from_cache=True)
        else:
            # The final checkpoint has just written this state byte for
            # byte; answer from memory instead of reading it back.
            assert self.session is not None
            sim = self.session.simulation
            result = JobResult(
                spec=self.spec,
                spec_hash=self.handle.spec_hash,
                run_dir=self.session.directory,
                particles=sim.particles,
                time=sim.time,
                record=sim.record.to_dict(),
                from_cache=False,
            )
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

    # -- ledger rows ---------------------------------------------------
    def note_slice(self, wall_s: float) -> None:
        """Buffer the slice just run; write the buffer once it is
        :data:`LEDGER_FLUSH_S` old, so ``top`` sees a long job move."""
        self._slice_seq += 1
        self._slices.append(
            (self._slice_seq, self.last_slice_steps, wall_s, time.time())
        )
        if time.perf_counter() - self._flushed_at >= LEDGER_FLUSH_S:
            with _ledger_errors():
                self.service.ledger.record_started(
                    self.run_id, **self._started, slices=self._slices
                )
            self._slices = []
            self._flushed_at = time.perf_counter()

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


@contextmanager
def _ledger_errors() -> Iterator[None]:
    """A run-ledger write's sqlite error surfaces as a LedgerError."""
    try:
        yield
    except sqlite3.Error as exc:
        raise LedgerError(f"run ledger write failed: {exc}") from exc


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
    ``"default"``).  The scheduler runs one runner thread per live job.

    ``ledger`` follows the one ledger rule
    (:func:`~repro.obs.ledger.resolve_ledger`): ``None`` is the
    ``ledger_dir`` setting's shared ledger, ``False`` none, and a
    :class:`~repro.obs.ledger.RunLedger` is used as given.

    Applications get a new service from :func:`repro.serve.connect`;
    the constructor is what ``connect``, :class:`~repro.serve.Worker`
    and :class:`~repro.serve.Gateway` call.
    """

    def __init__(
        self,
        *,
        max_concurrent_jobs: int | None = None,
        queue_capacity: int | None = None,
        cache_dir: str | Path | None = None,
        pool: EnginePool | None = None,
        pool_workers: int = 2,
        steps_per_slice: int = 8,
        verify: "bool | TolerancePolicy | None" = None,
        ledger: "RunLedger | bool | None" = None,
        shard: str | None = None,
        resume_orphans: bool = False,
        tenants: "dict[str, TenantPolicy | dict[str, Any]] | None" = None,
        default_tenant: str | None = None,
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
        #: durable run ledger (None when ledgering is off)
        self.ledger = resolve_ledger(ledger)
        self.cache = ResultCache(self.cache_dir)
        self.queue = FairJobQueue(self.queue_capacity, tenants=tenants)
        self._own_pool = pool is None
        self.pool = pool or EnginePool(workers=pool_workers)
        #: service-wide verification default (per-submit ``verify`` wins)
        self.verify = verify
        self.scheduler = Scheduler(
            self.queue,
            max_live=self.max_concurrent_jobs,
            steps_per_slice=steps_per_slice,
            slice_hook=lambda job, done: job.verify_slice(done),
            slice_observer=self._observe_slice,
        )
        self._lock = threading.Lock()
        #: every live job and the last KEEP_FINISHED finished ones
        self.jobs = JobTable(self.queue)
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
        otherwise the queue admits it or sheds it on the tenant's quotas
        or its capacity (:class:`~repro.errors.QuotaError` /
        :class:`~repro.errors.AdmissionError`; the ledger, when there is
        one, keeps a ``failed`` row for the rejection).  ``options.priority``
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
            live = self.jobs.live(spec_hash)
            job = None if live is None else live.work  # None: just finished
            if job is not None:
                live.dedup_count += 1
                self.deduped += 1
                obs.inc("serve.dedup_total")
                handle = job.handle
                if self.ledger is not None and handle.run_id is not None:
                    self.ledger.bump_dedup(handle.run_id)
                    self.ledger.record_event(
                        "dedup", spec_hash[:12], run_id=handle.run_id
                    )
                return handle
            record = JobRecord(spec_hash, tenant, priority=opts.priority)
            handle = JobHandle(spec, record)
            cached = self.cache.lookup(spec)
            if cached is not None:
                self.cache_hits += 1
                obs.inc("serve.cache_hits_total")
                if self.ledger is not None:
                    handle.run_id = self.ledger.record_submitted(
                        source="serve",
                        status="cached",
                        checkpoint_dir=str(cached.run_dir),
                        events=[("cache_hit", spec_hash[:12])],
                        **self._spec_fields(spec, spec_hash, tenant),
                    )
                handle._result = cached
                self.jobs.finish(record, **completed(cached))
                return handle
            job = record.work = _Job(self, spec, handle, options=opts)
            if self.ledger is not None:
                job.run_id = self.ledger.record_submitted(
                    source="serve", **self._spec_fields(spec, spec_hash, tenant)
                )
                handle.run_id = job.run_id
            try:
                self.jobs.admit(record, job)
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
        live = self.jobs.live(spec_hash)
        job = None if live is None else live.work  # None: just finished
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
    # job records
    # ------------------------------------------------------------------
    def status(self, spec_hash: str) -> dict[str, Any]:
        """The job's record as a snapshot dict (see :mod:`repro.serve.jobs`).

        Raises :class:`~repro.errors.UnknownJobError` for a hash that is
        neither live nor among the last ``KEEP_FINISHED`` finished jobs.
        """
        return self.jobs.require(spec_hash).snapshot()

    def wait(self, spec_hash: str, timeout: float | None = None) -> dict[str, Any]:
        """Block up to ``timeout`` s for the job to finish; its snapshot."""
        record = self.jobs.require(spec_hash)
        record.done.wait(timeout=check_timeout(timeout))
        return record.snapshot()

    # ------------------------------------------------------------------
    # scheduler callbacks
    # ------------------------------------------------------------------
    def _note_dequeued(self) -> None:
        obs.set_gauge("serve.queue_depth", len(self.queue))

    def _observe_slice(self, job: _Job, done: bool, wall_s: float) -> None:
        """Scheduler ``slice_observer``: labeled telemetry + ledger row.

        It changes nothing in the job but its slice counter; a ledger
        write that raises fails the job, as a raising slice hook does.
        """
        plan = job.spec.plan
        obs.inc("serve.slices_total", labels={"plan": plan})
        obs.observe("serve.slice_seconds", wall_s, labels={"plan": plan})
        if (
            self.ledger is not None
            and job.run_id is not None
            and job.last_slice_steps > 0
        ):
            job.note_slice(wall_s)
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
        """Write the job's final ledger row, then finish its record.

        A completion whose ledger write raises fails the job with that
        error instead (recorded as a failure if the ledger still takes a
        write); the record and the handle are resolved either way.
        """
        try:
            with _ledger_errors():
                self._ledger_finish(job, result=result, error=error)
        except Exception as exc:  # noqa: BLE001 - the job must still finish
            if error is None:
                result, error = None, exc
                with suppress(Exception):
                    self._ledger_finish(job, error=error)
        tenant = job.tenant
        counter = (
            "serve.jobs_completed_total" if error is None
            else "serve.jobs_failed_total"
        )
        obs.inc(counter)
        obs.inc(counter, labels={"tenant": tenant})
        handle = job.handle

        def resolve() -> None:
            handle._result, handle._error = result, error

        self.jobs.finish(
            handle.record,
            resolve=resolve,
            **(failed(error) if error is not None else completed(result)),
        )
        obs.set_gauge("serve.queue_depth", len(self.queue))
        self._emit_event(
            {
                "type": "finished",
                "spec_hash": handle.spec_hash,
                "tenant": tenant,
                "status": handle.status,
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
        """Finalise the job's ledger row (a failed write raises).

        The job's buffered started stamp and slice rows go in the same
        transaction, so a miss commits twice in all: at submit and here.
        """
        if self.ledger is None or job.run_id is None:
            return
        fields: dict[str, Any] = {
            "wall_s": time.perf_counter() - job._t0,
            "retries": job._retries,
            "started": job._started,
            "slices": job._slices,
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
            "jobs": self.jobs.counts(),
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

