"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures without also
catching programming errors (``TypeError`` etc. are still raised where the
caller violates an API contract in a way NumPy would surface anyway).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A device, plan, or simulation was configured inconsistently."""


class StateError(ReproError):
    """An operation was invoked on an object in an invalid state.

    Distinct from :class:`ConfigurationError`: the object was configured
    correctly but has not (yet) reached the state the operation requires —
    e.g. asking a fresh :class:`~repro.core.simulation.SimulationRecord`
    for its mean step time before any step ran.
    """


class LaunchError(ReproError):
    """A kernel launch was specified with an invalid geometry."""


class DeviceError(ReproError):
    """A device specification is invalid or an operation exceeds device limits."""


class TreeError(ReproError):
    """Octree construction or traversal failed an internal invariant."""


class ExecutionError(ReproError):
    """Parallel task execution failed permanently.

    Raised by :class:`~repro.exec.ExecutionEngine` when a dispatch
    exceeds its deadline or a task keeps failing after every configured
    retry.
    """


class CheckpointError(ReproError):
    """A run checkpoint or manifest is missing, corrupt, or unusable.

    Raised by :mod:`repro.runtime` when a session directory cannot be
    created, read back, or resumed from.
    """


class LedgerError(ReproError):
    """The run ledger is missing, corrupt, or schema-incompatible.

    Raised by :mod:`repro.obs.ledger` when a ledger database cannot be
    opened, its ``PRAGMA user_version`` does not match the supported
    schema, or a merge source is unreadable.
    """


class WorkloadError(ReproError):
    """An initial-condition or workload generator was given invalid parameters."""


class ServeError(ReproError):
    """A job-service operation failed (bad spec, closed service, dead job).

    Raised by :mod:`repro.serve` for lifecycle violations — submitting to
    a closed service, waiting on a job whose run raised, or a malformed
    :class:`~repro.serve.JobSpec`.
    """


class VerificationError(ReproError):
    """A differential or invariant check failed.

    Raised by :mod:`repro.check` when a candidate plan/backend deviates
    from its reference beyond the promised tolerance, a golden snapshot
    no longer matches, or a guarded run violates a physical invariant
    (energy drift, momentum conservation, non-finite state).  The
    message carries the failing check's measured value and threshold;
    richer detail is on the attached :attr:`report` when present.
    """

    def __init__(self, message: str, *, report: object | None = None) -> None:
        super().__init__(message)
        #: the failing InvariantReport / ForceComparison, when available
        self.report = report


class AdmissionError(ServeError):
    """The job queue refused a submission.

    Backpressure signal from :class:`~repro.serve.FairJobQueue`: the queue is
    at ``queue_capacity`` and the service is configured to reject rather
    than block.  Resubmit after draining or raise the capacity via
    ``repro.configure(queue_capacity=...)``.
    """


class QuotaError(AdmissionError):
    """A per-tenant quota refused a submission.

    Subclass of :class:`AdmissionError` so existing backpressure handling
    (CLI exit 3, gateway 429) applies unchanged, but distinguishable when
    the refusal came from a tenant's ``max_queued`` / ``max_inflight``
    budget rather than global queue capacity.  Carries the offending
    tenant on :attr:`tenant`.
    """

    def __init__(self, message: str, *, tenant: str | None = None) -> None:
        super().__init__(message)
        #: tenant whose quota was exceeded, when known
        self.tenant = tenant


class UnknownJobError(ServeError):
    """No job with the given spec hash is known to the service.

    Raised by the ``status`` and ``wait`` verbs of
    :class:`~repro.serve.JobService` and :class:`~repro.serve.RemoteService`
    (and the coordinator's ops behind the latter) when the hash was never
    submitted there, or its job finished before the last
    :data:`~repro.serve.jobs.KEEP_FINISHED` jobs.  Resubmitting a
    completed spec answers it from the result cache; the gateway replies
    404.
    """


class JobCancelledError(ServeError):
    """A job was cancelled before it completed.

    Raised from :meth:`JobHandle.result` / gateway result polls when
    :meth:`~repro.serve.JobService.cancel` stopped the job — either while
    still queued or mid-slice.  Cancellation releases the job's result-
    cache claim so a later identical submission starts fresh.
    """
