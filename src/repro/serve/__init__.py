"""repro.serve — batched multi-run job service, local or distributed.

Submit many :class:`JobSpec` jobs; the service interleaves their steps
over one shared worker pool (the paper's time-axis overlap applied to
whole runs), answers repeated specs from a content-addressed result
cache, coalesces identical in-flight submissions, and isolates faults
per job.  Results are **bit-identical** whether a job runs alone,
batched against siblings, sharded across workers, or is served from
cache.

Quick start — :func:`connect` is the one entry point for both
transports, and it returns the service itself (a :class:`JobService`
in-process, a :class:`RemoteService` against a coordinator)::

    from repro.serve import JobSpec, connect

    with connect(max_concurrent_jobs=4, cache_dir="cache") as service:
        specs = [JobSpec(workload="plummer", n=2048, plan=p, steps=50)
                 for p in ("i", "j", "w", "jw")]
        handles = [service.submit(spec) for spec in specs]
        results = [handle.result() for handle in handles]

    # resubmitting any of those specs is now a cache hit

    with connect("127.0.0.1:7321") as service:   # same verbs, remote
        result = service.run(specs[0])

Layers (each importable on its own):

* :mod:`~repro.serve.spec` — :class:`JobSpec`: canonical, content-hashed
  job descriptions.
* :mod:`~repro.serve.cache` — :class:`ResultCache` / :class:`JobResult`:
  spec-hash → completed run directory.
* :mod:`~repro.serve.scheduler` — :class:`Scheduler`: round-robin step
  slicing of live sessions.
* :mod:`~repro.serve.service` — :class:`JobService` and its
  :class:`JobHandle` futures.
* :mod:`~repro.serve.jobs` — the one job table both services keep: a
  small record per spec hash (status, outcome, ``state_sha256``), the
  one ``max_inflight`` release, and the last ``KEEP_FINISHED`` finished
  jobs; ``status``/``wait`` answer from it on either transport.

Service knobs (concurrency, queue bound, cache root, address, token,
tenant) resolve through the settings table in :mod:`repro.config`.

Distributed tier:

* :mod:`~repro.serve.wire` — length-prefixed JSON framing + error codec.
* :mod:`~repro.serve.coordinator` — :class:`Coordinator`: the shared
  queue worker shards pull from.
* :mod:`~repro.serve.worker` — :class:`Worker`: one shard = one
  :class:`JobService` fed by the coordinator, resuming orphans left by
  killed siblings.
* :mod:`~repro.serve.remote` — :func:`connect`, :class:`RemoteService`,
  :class:`RemoteHandle`: the coordinator transport behind the same
  service verbs.

Multi-tenant tier:

* :mod:`~repro.serve.options` — :class:`SubmitOptions`: the one
  submission-tuning surface (priority, tenant, retry, fault injection,
  verify) shared by every submit path.
* :mod:`~repro.serve.tenancy` — :class:`TenantPolicy` /
  :class:`FairJobQueue`: the bounded job queue — weighted fair
  scheduling, priority aging, and admission: every per-tenant quota
  (``max_inflight``, ``max_queued``) and the capacity, with
  :class:`~repro.errors.AdmissionError` backpressure.
* :mod:`~repro.serve.schema` — the versioned describe-document contract
  shared by ``describe()`` surfaces and the gateway's ``/v1/status``.
* :mod:`~repro.serve.gateway` — :class:`Gateway`: asyncio HTTP front
  end (submit/status/result/cancel + SSE slice streaming) over either
  transport.
"""

from repro.serve.cache import JobResult, ResultCache, load_result
from repro.serve.coordinator import Coordinator
from repro.serve.gateway import Gateway
from repro.serve.options import SubmitOptions
from repro.serve.remote import RemoteHandle, RemoteService, connect
from repro.serve.scheduler import Scheduler
from repro.serve.schema import DESCRIBE_VERSION, validate_describe
from repro.serve.service import JobHandle, JobService
from repro.serve.spec import JobSpec
from repro.serve.tenancy import DEFAULT_TENANT, FairJobQueue, TenantPolicy
from repro.serve.worker import Worker

__all__ = [
    "Coordinator",
    "DEFAULT_TENANT",
    "DESCRIBE_VERSION",
    "FairJobQueue",
    "Gateway",
    "JobHandle",
    "JobResult",
    "JobService",
    "JobSpec",
    "RemoteHandle",
    "RemoteService",
    "ResultCache",
    "Scheduler",
    "SubmitOptions",
    "TenantPolicy",
    "Worker",
    "connect",
    "load_result",
    "validate_describe",
]
