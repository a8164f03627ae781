"""One client surface, two transports: ``connect()`` and the remote tier.

:func:`connect` is the single public way to obtain a serve client:

* ``connect()`` — resolve the coordinator address through the usual
  settings chain (``repro.configure(serve_addr=...)``, then
  ``REPRO_SERVE_ADDR``); no address configured means an in-process
  :class:`~repro.serve.JobService`;
* ``connect(None)`` — force in-process regardless of configuration;
* ``connect("host:port")`` — dial that coordinator.

Either way the return value is a :class:`~repro.serve.Client` with the
same verbs (``submit`` / ``run`` / ``map`` / ``describe`` / ``close``),
the same :class:`~repro.serve.JobHandle` future semantics, and the same
errors — a remote :class:`~repro.errors.AdmissionError` is raised
client-side exactly like an in-process one (:mod:`repro.serve.wire`
reconstructs the class) — so call sites never branch on transport.

:class:`RemoteService` is the transport adapter behind the remote case:
it speaks the coordinator protocol over one socket and hands back
:class:`RemoteHandle` futures.  Results never cross the wire — the
coordinator reports the completed run *directory* and the handle loads
the final checkpoint from the shared filesystem through the very same
loader the in-process cache uses, which is what makes remote results
bit-identical to local ones by construction.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from repro.errors import ServeError
from repro.serve.cache import JobResult, load_result
from repro.serve.options import SubmitOptions
from repro.serve.service import Client, JobHandle, JobService
from repro.serve.settings import current_settings
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

    Same contract as the in-process handle — ``done``/``wait``/
    ``result``/``status``/``dedup_count`` — with state refreshed from
    the coordinator on demand and resolved locally (loading the result
    from the run directory) once the coordinator reports a terminal
    state.
    """

    def __init__(
        self,
        service: "RemoteService",
        spec: JobSpec,
        spec_hash: str,
        snapshot: dict[str, Any],
    ) -> None:
        super().__init__(spec, spec_hash)
        self._remote = service
        self._absorb_lock = threading.Lock()
        self._absorb(snapshot)

    def _absorb(self, snapshot: dict[str, Any]) -> None:
        """Fold a coordinator job snapshot into local future state.

        Serialized: concurrent pollers (e.g. gateway status probes on
        the same handle) must not both load the result or interleave a
        terminal transition with a stale queued/running update.
        """
        with self._absorb_lock:
            self.dedup_count = int(snapshot.get("dedup_count", 0) or 0)
            if snapshot.get("tenant"):
                self.tenant = snapshot["tenant"]
            status = snapshot.get("status")
            if self._done.is_set():
                return
            if status == "done":
                result = load_result(
                    self.spec,
                    snapshot["run_dir"],
                    from_cache=bool(snapshot.get("from_cache", False)),
                )
                self._resolve(result)
            elif status == "failed":
                self._reject(decode_error(snapshot.get("error") or {}))
            elif status in ("queued", "running"):
                self.status = status

    # -- waiting (RPC-backed) ------------------------------------------
    def done(self) -> bool:
        if not self._done.is_set():
            self._absorb(self._remote._status(self.spec_hash))
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        if self._done.is_set():
            return True
        self._absorb(self._remote._wait(self.spec_hash, timeout))
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        if not self.wait(timeout=timeout):
            raise ServeError(
                f"job {self.spec_hash[:12]} not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteHandle({self.spec_hash[:12]}, status={self.status})"


class RemoteService:
    """Coordinator-backed stand-in for :class:`JobService`.

    Speaks one request/response socket (thread-safe: RPCs serialize on
    an internal lock) and exposes the subset of the service protocol
    :class:`Client` drives — ``submit``, ``run``, ``describe``,
    ``close`` — plus :meth:`shutdown` to stop the coordinator itself.
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

    def _status(self, spec_hash: str) -> dict[str, Any]:
        return self._rpc({"op": "status", "spec_hash": spec_hash})["job"]

    def _wait(self, spec_hash: str, timeout: float | None) -> dict[str, Any]:
        """Chunked server-side wait so one handle can't starve others."""
        remaining = timeout
        while True:
            slice_s = (
                _WAIT_SLICE_S if remaining is None
                else max(0.0, min(_WAIT_SLICE_S, remaining))
            )
            reply = self._rpc(
                {"op": "wait", "spec_hash": spec_hash, "timeout": slice_s}
            )
            job = reply["job"]
            if job["status"] in ("done", "failed"):
                return job
            if remaining is not None:
                remaining -= slice_s
                if remaining <= 0:
                    return job

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
        return RemoteHandle(self, spec, spec.spec_hash(), reply["job"])

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteService(addr={self.addr!r})"


def connect(
    addr: "str | None" = _UNSET,
    *,
    token: str | None = None,
    **service_kwargs: Any,
) -> Client:
    """Open a serve client — in-process or against a coordinator.

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

    The returned :class:`Client` exposes identical verbs and errors on
    both transports.  ``service_kwargs`` (``max_concurrent_jobs=``,
    ``cache_dir=``, ``verify=``, ...) configure the in-process service
    and are rejected for a remote connection — those knobs belong to the
    coordinator and its workers, and silently ignoring them would make
    the two transports behave differently.
    """
    if addr is _UNSET:
        addr = current_settings().addr
    if addr is not None:
        if service_kwargs:
            raise ServeError(
                f"{sorted(service_kwargs)} configure an in-process service "
                f"and don't apply when connecting to a coordinator "
                f"({addr}); set them on the coordinator/workers instead"
            )
        if token is None:
            token = current_settings().token
        return Client(RemoteService(addr, token=token), own=True)
    return Client(JobService(**service_kwargs), own=True)
