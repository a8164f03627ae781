"""The serve tier's one job table: dedup, status, the one release, retention.

:class:`JobService` and :class:`~repro.serve.Coordinator` track their
jobs in a :class:`JobTable`, one :class:`JobRecord` per spec hash.  A
record walks ``queued`` → ``running`` → ``complete`` | ``failed`` |
``cancelled`` (a coordinator's lost worker moves ``running`` back to
``queued``), in one vocabulary on every transport.

The table owns the admission pair of its :class:`FairJobQueue`: it
pushes an admitted job (:meth:`JobTable.admit`, :meth:`JobTable.requeue`)
and releases the tenant's ``max_inflight`` slot when the job first
reaches a terminal state (:meth:`JobTable.finish`), so the slot is
released exactly once however many paths try to finish the job.

A record carries a job's outcome but no arrays — status, tenant, dedup
count, retries, the error in wire form, run directory, ``from_cache``,
steps, time, and the final state's ``state_sha256`` — and its owner's
live work only while the job runs.  So a finished record is small, and
the table keeps the last :data:`KEEP_FINISHED` of them: a status or
result request for an older hash raises
:class:`~repro.errors.UnknownJobError`, and resubmitting a completed
spec answers it from the result cache.  Status counts move with each
transition, so :meth:`JobTable.counts` never scans.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.check.golden import state_digest
from repro.errors import JobCancelledError, ServeError, UnknownJobError
from repro.serve.tenancy import FairJobQueue
from repro.serve.wire import encode_error

if TYPE_CHECKING:
    from repro.serve.cache import JobResult

__all__ = [
    "JobRecord", "JobTable", "KEEP_FINISHED", "OUTCOME_FIELDS",
    "SNAPSHOT_FIELDS", "TERMINAL", "completed", "failed",
]

#: Finished records a table keeps addressable; the oldest goes first.
KEEP_FINISHED = 1024

#: Statuses a job never leaves.
TERMINAL = frozenset({"complete", "failed", "cancelled"})

#: What :meth:`JobTable.finish` writes (and a worker's ``done`` reports).
OUTCOME_FIELDS = (
    "status", "error", "run_dir", "from_cache", "steps", "time", "state_sha256",
)

#: What a record's snapshot carries.
SNAPSHOT_FIELDS = ("spec_hash", "tenant", "dedup_count", "retries", *OUTCOME_FIELDS)


class JobRecord:
    """One job's status and outcome, keyed by its spec hash.

    ``work`` is the owner's live job (the service's ``_Job``, the
    coordinator's :class:`~repro.serve.JobSpec`); :meth:`JobTable.finish`
    drops it.  ``done`` is set once every outcome field is written.
    """

    __slots__ = (*SNAPSHOT_FIELDS, "priority", "work", "done")

    def __init__(self, spec_hash: str, tenant: str, *, priority: int = 0) -> None:
        self.spec_hash = spec_hash
        self.tenant = tenant
        self.priority = priority
        self.status = "queued"
        #: submissions coalesced onto this job beyond the first
        self.dedup_count = 0
        #: times a lost worker returned the job to the queue
        self.retries = 0
        #: ``{"error": <class name>, "message": <str>}`` unless it completed
        self.error: dict[str, str] | None = None
        self.run_dir: str | None = None
        self.from_cache = False
        self.steps: int | None = None
        self.time: float | None = None
        self.state_sha256: str | None = None
        self.work: Any = None
        self.done = threading.Event()

    def snapshot(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in SNAPSHOT_FIELDS}


def completed(result: "JobResult") -> dict[str, Any]:
    """:meth:`JobTable.finish` outcome of a job that produced ``result``."""
    return {
        "status": "complete",
        "run_dir": str(result.run_dir),
        "from_cache": result.from_cache,
        "steps": result.steps,
        "time": result.time,
        "state_sha256": state_digest(result.particles, result.time),
    }


def failed(error: BaseException) -> dict[str, Any]:
    """:meth:`JobTable.finish` outcome of a job that died of ``error``."""
    cancelled = isinstance(error, JobCancelledError)
    return {
        "status": "cancelled" if cancelled else "failed",
        "error": encode_error(error),
    }


class JobTable:
    """Live and recently finished :class:`JobRecord` objects by spec hash."""

    def __init__(self, queue: FairJobQueue) -> None:
        self.queue = queue
        self._lock = threading.Lock()
        self._live: dict[str, JobRecord] = {}
        self._finished: OrderedDict[str, JobRecord] = OrderedDict()
        self._counts: Counter[str] = Counter()

    # -- reads ---------------------------------------------------------
    def live(self, spec_hash: str) -> JobRecord | None:
        """The queued or running record a new submission coalesces onto."""
        with self._lock:
            return self._live.get(spec_hash)

    def get(self, spec_hash: str) -> JobRecord | None:
        """The live record, else the retained finished one, else ``None``."""
        with self._lock:
            return self._live.get(spec_hash) or self._finished.get(spec_hash)

    def require(self, spec_hash: str) -> JobRecord:
        """:meth:`get`, raising :class:`UnknownJobError` for ``None``."""
        record = self.get(spec_hash)
        if record is None:
            raise UnknownJobError(
                f"unknown job {spec_hash[:12] or '<missing>'}: never submitted "
                f"here, or finished before the last {KEEP_FINISHED} jobs; "
                "resubmit it (a completed spec is answered from the cache)"
            )
        return record

    def counts(self) -> dict[str, int]:
        """Jobs per status: live ones now, finished ones ever."""
        with self._lock:
            return {status: n for status, n in self._counts.items() if n}

    # -- transitions ---------------------------------------------------
    def admit(self, record: JobRecord, item: Any) -> None:
        """Queue ``item`` for ``record`` and track the record live.

        The queue's quotas and capacity may refuse the push
        (:class:`~repro.errors.AdmissionError`); then nothing is tracked.
        An admitted record holds a ``max_inflight`` slot until
        :meth:`finish`.
        """
        with self._lock:
            self.queue.push(item, priority=record.priority, tenant=record.tenant)
            self._live[record.spec_hash] = record
            self._counts[record.status] += 1

    def set_status(self, record: JobRecord, status: str) -> None:
        """Move a live record between ``queued`` and ``running``."""
        with self._lock:
            self._counts[record.status] -= 1
            record.status = status
            self._counts[status] += 1

    def requeue(self, record: JobRecord, item: Any) -> None:
        """Return a running record's ``item`` to the queue (a lost worker).

        The push skips every quota, and the record keeps its slot.
        """
        with self._lock:
            self.queue.push(
                item, priority=record.priority, tenant=record.tenant, force=True
            )
            record.retries += 1
            self._counts[record.status] -= 1
            record.status = "queued"
            self._counts["queued"] += 1

    def finish(
        self,
        record: JobRecord,
        *,
        resolve: Callable[[], None] | None = None,
        **outcome: Any,
    ) -> bool:
        """Enter the terminal state; ``False``, changing nothing, if the
        record had already finished (the first outcome stands).

        Writes every :data:`OUTCOME_FIELDS` field, drops the live work,
        releases the tenant's slot if the record was admitted, keeps the
        record among the last :data:`KEEP_FINISHED`, runs ``resolve``
        (the owner's in-memory answer) and only then sets ``done``.
        """
        if outcome.get("status") not in TERMINAL:
            raise ServeError(f"a job cannot finish as {outcome.get('status')!r}")
        with self._lock:
            if record.status in TERMINAL:
                return False
            admitted = self._live.get(record.spec_hash) is record
            if admitted:
                del self._live[record.spec_hash]
                self._counts[record.status] -= 1
            for name in OUTCOME_FIELDS:
                setattr(record, name, outcome.get(name, getattr(record, name)))
            record.work = None
            self._counts[record.status] += 1
            self._finished.pop(record.spec_hash, None)
            self._finished[record.spec_hash] = record
            while len(self._finished) > KEEP_FINISHED:
                self._finished.popitem(last=False)
            if admitted:
                self.queue.release(record.tenant)
        if resolve is not None:
            resolve()
        record.done.set()
        return True
