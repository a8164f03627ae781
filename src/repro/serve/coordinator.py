"""The distributed serve coordinator: one queue, many worker shards.

The coordinator is the meeting point of the distributed tier: remote
clients submit :class:`~repro.serve.JobSpec` jobs to it, worker shards
pull jobs from it, and every party talks the same length-prefixed JSON
protocol (:mod:`repro.serve.wire`) over a plain TCP socket.

Distribution model — *pull*, not push: a worker asks for its ``next``
job whenever it has capacity, so load balancing falls out of worker
backpressure and the coordinator never needs worker health heuristics.
The failure signal is the connection itself: when a worker's socket
drops, every job it had claimed but not reported done is requeued
(``retries`` incremented) for the next worker.  A job that *reports*
failure is failed permanently — jobs are deterministic, so re-running a
genuinely failing spec on another shard would loop forever.

Jobs are tracked as in the in-process :class:`~repro.serve.JobService`,
in one :class:`~repro.serve.jobs.JobTable` with the same record and the
same status vocabulary: identical live specs coalesce onto one record by
content hash, a spec already complete in the shared
:class:`~repro.serve.ResultCache` is answered without touching the
queue, and the table keeps the last ``KEEP_FINISHED`` finished records,
so memory and :meth:`Coordinator.describe` stay bounded however many
jobs pass through.  Workers share that cache directory (shared
filesystem), which is also how results travel: a ``done`` message
carries the worker's record of the outcome — run directory, steps,
time and ``state_sha256`` — and clients load the checkpoint themselves
when they want the arrays, so particle arrays never cross the socket
and sharded results are bit-identical to solo runs by construction
(same files, same loader).  Admission is the same rule as well: the
coordinator's :class:`~repro.serve.FairJobQueue` checks every tenant
quota and the capacity, and the table releases a job's slot once.

The coordinator's optional ledger records coordinator-*level* events
(submissions, assignments, requeues, worker lifecycle) with no run rows
— run accounting lives in the worker shards' ledgers, stamped with their
shard names, and ``repro-nbody serve merge-shards`` folds those into one
experiment database.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro import obs
from repro.config import resolve
from repro.errors import JobCancelledError, ServeError
from repro.obs.ledger import RunLedger, resolve_ledger
from repro.serve.cache import ResultCache
from repro.serve.jobs import OUTCOME_FIELDS, JobRecord, JobTable, completed, failed
from repro.serve.options import SubmitOptions, check_timeout
from repro.serve.schema import DESCRIBE_VERSION
from repro.serve.spec import JobSpec
from repro.serve.tenancy import DEFAULT_TENANT, FairJobQueue, TenantPolicy
from repro.serve.wire import (
    encode_error,
    format_addr,
    parse_addr,
    recv_msg,
    send_msg,
)

__all__ = ["Coordinator"]

#: Server-side wait slice — bounds how long a dead client can pin a
#: handler thread inside one ``wait`` RPC.
_WAIT_CHUNK_S = 0.25


class Coordinator:
    """Socket server distributing jobs to pull-model worker shards.

    Parameters
    ----------
    addr:
        ``"host:port"`` to listen on; port ``0`` picks a free port — the
        bound address is available as :attr:`addr` after construction.
    cache_dir:
        Shared result-cache root (must be reachable by every worker and
        client); resolves through the ``cache_dir`` setting.
    queue_capacity:
        Bound on queued-but-unassigned jobs before submissions are
        rejected with :class:`~repro.errors.AdmissionError`.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` for coordinator events,
        ``False`` to opt out, ``None`` to resolve via
        ``repro.configure(ledger_dir=...)`` / ``REPRO_LEDGER_DIR``;
        anything else raises :class:`~repro.errors.ConfigurationError`.
    token:
        Shared-secret every RPC must carry (``connect(addr, token=)``);
        resolves through ``configure(serve_token=)`` /
        ``REPRO_SERVE_TOKEN``.  ``None`` (after resolution) disables the
        check.
    tenants:
        Tenant-name → :class:`~repro.serve.TenantPolicy` (or dict)
        mapping: fair-scheduling weights plus ``max_queued`` /
        ``max_inflight`` quotas, which the coordinator's
        :class:`~repro.serve.FairJobQueue` enforces as it does for
        :class:`~repro.serve.JobService`.  A job holds its
        ``max_inflight`` slot from admission until it is done, failed,
        cancelled or failed by :meth:`stop`; a worker loss requeues it
        with the slot it holds.
    """

    def __init__(
        self,
        addr: str = "127.0.0.1:0",
        *,
        cache_dir: str | Path | None = None,
        queue_capacity: int | None = None,
        ledger: "RunLedger | bool | None" = None,
        token: str | None = None,
        tenants: "dict[str, TenantPolicy | dict[str, Any]] | None" = None,
    ) -> None:
        #: queued-but-unassigned jobs before AdmissionError
        self.queue_capacity = resolve("queue_capacity", queue_capacity)
        #: shared result-cache root
        self.cache_dir = str(resolve("cache_dir", cache_dir))
        #: shared-secret RPCs must present (None = auth disabled)
        self.token = resolve("serve_token", token)
        self.cache = ResultCache(self.cache_dir)
        self.ledger = resolve_ledger(ledger)
        host, port = parse_addr(addr)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        #: the bound address (concrete port even when asked for :0)
        self.addr = format_addr(self._sock.getsockname()[:2])
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: queued records: weighted fair across tenants, aged priority within
        self._queue = FairJobQueue(self.queue_capacity, tenants=tenants)
        #: every live job and the last KEEP_FINISHED finished ones
        self.jobs = JobTable(self._queue)
        self._workers_seen: set[str] = set()
        self._stopped = threading.Event()
        #: one thread per open connection
        self._threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self.jobs_submitted = 0
        self.cache_hits = 0
        self.deduped = 0
        self.jobs_cancelled = 0
        self._accept_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Coordinator":
        """Launch the accept loop (idempotent); returns ``self``."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-coordinator", daemon=True
            )
            self._accept_thread.start()
            self._event("coordinator_start", self.addr)
        return self

    def stop(self) -> None:
        """Shut the coordinator down and drop every connection."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._event("coordinator_stop", self.addr)
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            # Unblock workers parked in `next` and fail undispatched work
            # so no client waits on a job that can never run.
            for record in self._queue.remove(lambda _record: True):
                self.jobs.finish(record, **failed(
                    ServeError("coordinator stopped before job was assigned")
                ))
            self._cond.notify_all()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            t.join(timeout=5.0)

    def join(self, timeout: float | None = None) -> bool:
        """Block until :meth:`stop` (a ``shutdown`` RPC counts)."""
        return self._stopped.wait(timeout=timeout)

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accept / connection loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-coordinator-conn", daemon=True,
            )
            with self._lock:
                self._conns.add(conn)
                self._threads.add(t)
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        #: records this connection (a worker) has claimed and not finished
        assigned: dict[str, JobRecord] = {}
        shard: str | None = None
        try:
            while not self._stopped.is_set():
                try:
                    msg = recv_msg(conn)
                except (ServeError, OSError):
                    break
                if msg is None:
                    break  # clean EOF
                if self.token is not None and msg.get("token") != self.token:
                    # Auth precedes every op, including shutdown: an
                    # unauthenticated peer can neither run jobs nor stop
                    # the coordinator.
                    obs.inc("serve.coord.auth_failures_total")
                    try:
                        send_msg(conn, {
                            "ok": False,
                            **encode_error(ServeError(
                                "authentication failed: bad or missing serve "
                                "token (pass connect(addr, token=...) or set "
                                "REPRO_SERVE_TOKEN)"
                            )),
                        })
                    except (ServeError, OSError):
                        pass
                    break
                if msg.get("op") == "shutdown":
                    # Acknowledge before stopping — stop() drops every
                    # connection, so a dispatched reply would race it.
                    try:
                        send_msg(conn, {"ok": True, "stopping": True})
                    except (ServeError, OSError):
                        pass
                    threading.Thread(target=self.stop, daemon=True).start()
                    break
                try:
                    reply, shard = self._dispatch(msg, assigned, shard)
                except ServeError as exc:
                    reply = {"ok": False, **encode_error(exc)}
                except Exception as exc:  # defensive: never kill the conn silently
                    reply = {"ok": False, **encode_error(ServeError(str(exc)))}
                try:
                    send_msg(conn, reply)
                except (ServeError, OSError):
                    break
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass
            if assigned:
                self._requeue(assigned, shard)
            if shard is not None:
                self._event("worker_disconnect", shard)
            with self._lock:
                self._threads.discard(threading.current_thread())

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        msg: dict[str, Any],
        assigned: dict[str, JobRecord],
        shard: str | None,
    ) -> tuple[dict[str, Any], str | None]:
        op = msg.get("op")
        if op == "submit":
            return self._op_submit(msg), shard
        if op == "wait":
            return self._op_wait(msg), shard
        if op == "status":
            return self._op_status(msg), shard
        if op == "cancel":
            return self._op_cancel(msg), shard
        if op == "describe":
            return {"ok": True, "describe": self.describe()}, shard
        if op == "hello":
            shard = str(msg.get("shard", "worker"))
            with self._lock:
                self._workers_seen.add(shard)
            self._event("worker_connect", shard)
            return {"ok": True, "addr": self.addr}, shard
        if op == "next":
            return self._op_next(msg, assigned, shard), shard
        if op == "done":
            return self._op_done(msg, assigned), shard
        raise ServeError(f"unknown coordinator op: {op!r}")

    def _op_submit(self, msg: dict[str, Any]) -> dict[str, Any]:
        spec = JobSpec.from_dict(msg["spec"])
        options = SubmitOptions.from_wire(msg.get("options"))
        tenant = options.tenant or DEFAULT_TENANT
        spec_hash = spec.spec_hash()
        with self._lock:
            if self._stopped.is_set():
                raise ServeError("coordinator is stopped")
            self.jobs_submitted += 1
            obs.inc("serve.coord.jobs_total")
            obs.inc("serve.coord.jobs_total", labels={"tenant": tenant})
            record = self.jobs.live(spec_hash)
            if record is not None:
                # In-flight dedup only — a finished job falls through to
                # the cache lookup below (mirroring JobService, where a
                # finished spec's resubmission is a cache hit).
                record.dedup_count += 1
                self.deduped += 1
                obs.inc("serve.coord.dedup_total")
                self._event("dedup", spec_hash[:12])
                return {"ok": True, "job": record.snapshot(), "deduped": True}
            record = JobRecord(spec_hash, tenant, priority=options.priority)
            cached = self.cache.lookup(spec)
            if cached is not None:
                self.cache_hits += 1
                obs.inc("serve.coord.cache_hits_total")
                self.jobs.finish(record, **completed(cached))
                self._event("cache_hit", spec_hash[:12])
                return {"ok": True, "job": record.snapshot(), "deduped": False}
            record.work = spec
            try:
                self.jobs.admit(record, record)
            except Exception:
                obs.inc("serve.coord.rejected_total")
                raise
            self._event("submit", spec_hash[:12])
            self._cond.notify()
            return {"ok": True, "job": record.snapshot(), "deduped": False}

    def _op_wait(self, msg: dict[str, Any]) -> dict[str, Any]:
        deadline = check_timeout(msg.get("timeout"))
        record = self.jobs.require(str(msg.get("spec_hash", "")))
        waited = 0.0
        while True:
            if record.done.wait(timeout=_WAIT_CHUNK_S):
                return {"ok": True, "job": record.snapshot()}
            waited += _WAIT_CHUNK_S
            if deadline is not None and waited >= deadline:
                return {"ok": True, "job": record.snapshot(), "timed_out": True}
            if self._stopped.is_set():
                raise ServeError("coordinator stopped while waiting")

    def _op_status(self, msg: dict[str, Any]) -> dict[str, Any]:
        record = self.jobs.require(str(msg.get("spec_hash", "")))
        return {"ok": True, "job": record.snapshot()}

    def _op_next(
        self,
        msg: dict[str, Any],
        assigned: dict[str, JobRecord],
        shard: str | None,
    ) -> dict[str, Any]:
        if shard is None:
            raise ServeError("worker must say hello before asking for work")
        timeout = float(msg.get("timeout", 0.0))
        with self._cond:
            if not self._queue:
                self._cond.wait(timeout=min(timeout, 30.0))
            if self._stopped.is_set():
                raise ServeError("coordinator is stopped")
            entry = self._queue.pop_nowait()
            if entry is None:
                return {"ok": True, "job": None}
            record = entry.item
            self.jobs.set_status(record, "running")
            spec = record.work
        assigned[record.spec_hash] = record
        self._event("assign", f"{record.spec_hash[:12]} -> {shard}")
        return {
            "ok": True,
            "job": {
                "spec": spec.to_dict(),
                "spec_hash": record.spec_hash,
                "priority": record.priority,
                "retries": record.retries,
                # Worker passthrough: the shard resubmits locally with
                # these so its ledger rows carry the tenant label.
                "options": {"priority": record.priority, "tenant": record.tenant},
            },
        }

    def _op_done(
        self, msg: dict[str, Any], assigned: dict[str, JobRecord]
    ) -> dict[str, Any]:
        """A worker's report: its own record's outcome, copied onto ours."""
        spec_hash = str(msg.get("spec_hash", ""))
        record = assigned.pop(spec_hash, None) or self.jobs.require(spec_hash)
        self.jobs.finish(
            record, **{name: msg[name] for name in OUTCOME_FIELDS if name in msg}
        )
        self._event(record.status, spec_hash[:12])
        return {"ok": True}

    def _op_cancel(self, msg: dict[str, Any]) -> dict[str, Any]:
        record = self.jobs.require(str(msg.get("spec_hash", "")))
        with self._lock:
            if record.status != "queued" or not self._queue.remove(
                lambda r: r is record
            ):
                # Running/finished jobs are out of the coordinator's reach —
                # the claim lives on a worker.  Report non-cancellation
                # rather than guessing.
                return {"ok": True, "cancelled": False, "job": record.snapshot()}
            self.jobs_cancelled += 1
            obs.inc("serve.coord.cancelled_total")
            self.jobs.finish(record, **failed(JobCancelledError(
                f"job {record.spec_hash[:12]} cancelled while queued"
            )))
            self._event("cancel", record.spec_hash[:12])
            return {"ok": True, "cancelled": True, "job": record.snapshot()}

    def _requeue(
        self, assigned: dict[str, JobRecord], shard: str | None
    ) -> None:
        """Return a lost worker's unfinished claims to the queue."""
        with self._lock:
            for record in assigned.values():
                if record.status != "running":
                    continue
                # The push skips the capacity and quota checks: a lost
                # worker's claim is never shed on its way back in, and it
                # keeps the max_inflight slot it already holds.
                self.jobs.requeue(record, record)
                obs.inc("serve.coord.requeues_total")
                self._event(
                    "requeue", f"{record.spec_hash[:12]} (lost {shard})"
                )
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _event(self, kind: str, detail: str | None = None) -> None:
        if self.ledger is not None:
            self.ledger.record_event(f"coord.{kind}", detail)

    def describe(self) -> dict[str, Any]:
        """Introspection snapshot (mirrors ``JobService.describe``)."""
        with self._lock:
            return {
                "describe_version": DESCRIBE_VERSION,
                "kind": "coordinator",
                "addr": self.addr,
                "settings": {
                    "queue_capacity": self.queue_capacity,
                    "cache_dir": self.cache_dir,
                    "auth": self.token is not None,
                },
                "queue_depth": len(self._queue),
                "queue_depth_by_tenant": self._queue.depth_by_tenant(),
                "tenants": {
                    name: asdict(policy)
                    for name, policy in sorted(self._queue.policies.items())
                },
                "jobs": self.jobs.counts(),
                "jobs_submitted": self.jobs_submitted,
                "cache_hits": self.cache_hits,
                "deduped": self.deduped,
                "cancelled": self.jobs_cancelled,
                "workers": sorted(self._workers_seen),
                "ledger": None if self.ledger is None else str(self.ledger.path),
                "closed": self._stopped.is_set(),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Coordinator(addr={self.addr!r}, queued={len(self._queue)}, "
            f"jobs={self.jobs.counts()})"
        )
