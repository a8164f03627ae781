"""One service surface, two transports: ``connect()`` and the remote tier.

:func:`connect` is the single public way to obtain a serve service:

* ``connect()`` — resolve the coordinator address through the usual
  settings chain (``repro.configure(serve_addr=...)``, then
  ``REPRO_SERVE_ADDR``); no address configured means an in-process
  :class:`~repro.serve.JobService`;
* ``connect(None)`` — force in-process regardless of configuration;
* ``connect("host:port")`` — dial that coordinator.

The return value is the service itself — a
:class:`~repro.serve.JobService` in-process, a :class:`RemoteService`
against a coordinator — with the same verbs (``submit`` / ``run`` /
``status`` / ``wait`` / ``cancel`` / ``describe`` / ``close``, and
``with`` closes it), the same :class:`~repro.serve.JobHandle` future
semantics, the same job snapshots, and the same errors —
a remote :class:`~repro.errors.AdmissionError` is raised client-side
exactly like an in-process one (:mod:`repro.serve.wire` reconstructs the
class) — so call sites never branch on transport.

:class:`RemoteService` speaks the coordinator protocol over one socket
and hands back :class:`RemoteHandle` futures.  Results never cross the
wire — the coordinator's record carries the completed run *directory*,
steps, time and ``state_sha256``, and :meth:`RemoteHandle.result` loads
the final checkpoint from the shared filesystem through the very same
loader the in-process cache uses, which is what makes remote results
bit-identical to local ones by construction.  Only ``result`` reads a
checkpoint: ``status``, ``wait``, ``done`` and the gateway never do.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from repro.config import resolve
from repro.errors import ServeError
from repro.serve.cache import JobResult, load_result
from repro.serve.jobs import SNAPSHOT_FIELDS, TERMINAL, JobRecord
from repro.serve.options import SubmitOptions, check_timeout
from repro.serve.service import JobHandle, JobService
from repro.serve.spec import JobSpec
from repro.serve.wire import decode_error, parse_addr, recv_msg, send_msg

__all__ = ["RemoteHandle", "RemoteService", "connect"]

#: Per-RPC slice of a long server-side wait, so concurrent handles on
#: one connection interleave instead of starving behind a single wait.
_WAIT_SLICE_S = 0.5

#: "No address argument given" sentinel — distinct from an explicit
#: ``None`` (which forces in-process).
_UNSET: Any = object()


class RemoteHandle(JobHandle):
    """A :class:`JobHandle` backed by coordinator RPCs.

    Same contract as the in-process handle.  Its record is a local copy
    of the coordinator's, refreshed by ``done`` and ``wait`` until it is
    terminal; :meth:`result` loads the final state from the shared run
    directory once, on first call.  A hash the coordinator no longer
    keeps raises :class:`~repro.errors.UnknownJobError` from a refresh.
    """

    def __init__(
        self,
        service: "RemoteService",
        spec: JobSpec,
        snapshot: dict[str, Any],
    ) -> None:
        super().__init__(spec, JobRecord(snapshot["spec_hash"], snapshot["tenant"]))
        self._remote = service
        self._absorb_lock = threading.Lock()
        self._absorb(snapshot)

    def _absorb(self, snapshot: dict[str, Any]) -> None:
        """Copy a coordinator snapshot into the local record.

        Serialized, so a stale snapshot from a concurrent poll cannot
        overwrite a terminal one.
        """
        record = self.record
        with self._absorb_lock:
            if record.done.is_set():
                return
            for name in SNAPSHOT_FIELDS:
                setattr(record, name, snapshot[name])
            if record.status in TERMINAL:
                if record.error is not None:
                    self._error = decode_error(record.error)
                record.done.set()

    # -- waiting (RPC-backed) ------------------------------------------
    def done(self) -> bool:
        if not self.record.done.is_set():
            self._absorb(self._remote.status(self.spec_hash))
        return self.record.done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        timeout = check_timeout(timeout)
        if not self.record.done.is_set():
            self._absorb(self._remote.wait(self.spec_hash, timeout))
        return self.record.done.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        super().result(timeout=timeout)  # raises on a timeout or a failure
        if self._result is None:
            self._result = load_result(
                self.spec, self.record.run_dir, from_cache=self.record.from_cache
            )
        return self._result


class RemoteService:
    """Coordinator-backed stand-in for :class:`JobService`.

    Speaks one request/response socket (thread-safe: RPCs serialize on
    an internal lock) and exposes the service verbs — ``submit``,
    ``run``, ``status``, ``wait``, ``cancel``, ``describe``, ``close`` —
    plus :meth:`shutdown` to stop the coordinator itself.  Closing it (or
    leaving its ``with`` block) drops the connection; the coordinator
    keeps running.
    """

    def __init__(
        self,
        addr: str,
        *,
        token: str | None = None,
        connect_timeout: float = 30.0,
    ) -> None:
        self.addr = addr
        self._token = token
        host, port = parse_addr(addr)
        try:
            self._sock: socket.socket | None = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ServeError(f"cannot reach coordinator at {addr}: {exc}") from exc
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()

    # -- plumbing ------------------------------------------------------
    def _rpc(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self._token is not None:
            msg = {**msg, "token": self._token}
        with self._lock:
            if self._sock is None:
                raise ServeError("connection to coordinator is closed")
            try:
                send_msg(self._sock, msg)
                reply = recv_msg(self._sock)
            except OSError as exc:
                raise ServeError(
                    f"lost connection to coordinator at {self.addr}: {exc}"
                ) from exc
        if reply is None:
            raise ServeError(f"coordinator at {self.addr} closed the connection")
        if not reply.get("ok"):
            raise decode_error(reply)
        return reply

    # -- service protocol ----------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        options: SubmitOptions | None = None,
    ) -> RemoteHandle:
        """Submit to the coordinator; returns a :class:`RemoteHandle`.

        Engine-level per-job options (``retry``, ``fault_injector``,
        ``verify``) are worker-side policy in the distributed tier and
        cannot be shipped with a submission — setting one raises
        :class:`ServeError` rather than silently dropping it.
        """
        if not isinstance(spec, JobSpec):
            raise ServeError(
                f"submit() takes a JobSpec, got {type(spec).__name__}"
            )
        opts = options or SubmitOptions()
        if not opts.wire_safe():
            local_only = sorted(
                name for name in ("fault_injector", "retry", "verify")
                if getattr(opts, name) is not None
            )
            raise ServeError(
                f"{local_only} not supported over a coordinator "
                "connection; configure them on the worker shards"
            )
        reply = self._rpc(
            {"op": "submit", "spec": spec.to_dict(), "options": opts.to_wire()}
        )
        return RemoteHandle(self, spec, reply["job"])

    def status(self, spec_hash: str) -> dict[str, Any]:
        """The coordinator's record of the job, as a snapshot dict.

        Raises :class:`~repro.errors.UnknownJobError` for a hash the
        coordinator does not keep, as :meth:`JobService.status` does.
        """
        return self._rpc({"op": "status", "spec_hash": spec_hash})["job"]

    def wait(self, spec_hash: str, timeout: float | None = None) -> dict[str, Any]:
        """Block up to ``timeout`` s for the job to finish; its snapshot.

        The wait is cut into server-side slices so that handles sharing
        this connection take turns.
        """
        remaining = check_timeout(timeout)
        while True:
            slice_s = (
                _WAIT_SLICE_S if remaining is None
                else max(0.0, min(_WAIT_SLICE_S, remaining))
            )
            reply = self._rpc(
                {"op": "wait", "spec_hash": spec_hash, "timeout": slice_s}
            )
            job = reply["job"]
            if job["status"] in TERMINAL:
                return job
            if remaining is not None:
                remaining -= slice_s
                if remaining <= 0:
                    return job

    def run(
        self,
        spec: JobSpec,
        *,
        options: SubmitOptions | None = None,
        timeout: float | None = None,
    ) -> JobResult:
        """Submit and block for the result."""
        return self.submit(spec, options=options).result(timeout=timeout)

    def cancel(self, spec_hash: str) -> bool:
        """Cancel a queued job at the coordinator.

        Returns ``True`` if the job was plucked from the queue (it fails
        with :class:`~repro.errors.JobCancelledError`), ``False`` if it
        was already running, finished, or unknown to the cancel op.
        """
        reply = self._rpc({"op": "cancel", "spec_hash": spec_hash})
        return bool(reply.get("cancelled", False))

    def describe(self) -> dict[str, Any]:
        """The coordinator's introspection snapshot."""
        return self._rpc({"op": "describe"})["describe"]

    def shutdown(self) -> None:
        """Ask the coordinator to stop (used by ``serve shutdown``)."""
        self._rpc({"op": "shutdown"})

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Drop the connection (the coordinator keeps running)."""
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def __enter__(self) -> "RemoteService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteService(addr={self.addr!r})"


def connect(
    addr: "str | None" = _UNSET,
    *,
    token: str | None = None,
    **service_kwargs: Any,
) -> "JobService | RemoteService":
    """Open a serve service — in-process or against a coordinator.

    ``addr`` semantics:

    * omitted — resolve through the settings chain:
      ``repro.configure(serve_addr=...)``, then the ``REPRO_SERVE_ADDR``
      environment variable, else in-process;
    * ``None`` — force an in-process service regardless of settings;
    * ``"host:port"`` — dial that coordinator.

    ``token`` is the shared secret a token-protected coordinator
    requires; omitted, it resolves through ``configure(serve_token=)``
    then ``REPRO_SERVE_TOKEN``.  A mismatch surfaces as a clear
    :class:`~repro.errors.ServeError` on the first RPC.  The in-process
    path ignores it (there is no wire to protect).

    The return value is a new :class:`~repro.serve.JobService` or a
    :class:`RemoteService`; both have identical verbs and errors, and
    closing either (``with`` does it) closes only what ``connect``
    opened.  ``service_kwargs`` (``max_concurrent_jobs=``,
    ``cache_dir=``, ``verify=``, ...) configure the in-process service
    and are rejected for a remote connection — those knobs belong to the
    coordinator and its workers, and silently ignoring them would make
    the two transports behave differently.
    """
    if addr is _UNSET:
        addr = resolve("serve_addr")
    if addr is not None:
        if service_kwargs:
            raise ServeError(
                f"{sorted(service_kwargs)} configure an in-process service "
                f"and don't apply when connecting to a coordinator "
                f"({addr}); set them on the coordinator/workers instead"
            )
        return RemoteService(addr, token=resolve("serve_token", token))
    return JobService(**service_kwargs)
