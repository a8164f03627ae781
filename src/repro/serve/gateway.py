"""Async multi-tenant HTTP gateway over the serve tier.

The gateway is the front door for "many clients, one simulation
service": a stdlib-``asyncio`` HTTP server that exposes the service
verbs — submit, status, result, cancel — as JSON endpoints plus a
Server-Sent-Events stream of per-slice progress.  It holds the service
:func:`~repro.serve.connect` returns: an in-process
:class:`~repro.serve.JobService`, or a
:class:`~repro.serve.RemoteService` for a coordinator
(``backend="host:port"``).  Fairness, quotas, and priority aging live
*below* it in :class:`~repro.serve.FairJobQueue`, and so does every job:
the gateway keeps none, and answers each job request from the service's
job table (:mod:`repro.serve.jobs`) through the ``status`` and ``wait``
verbs.  Its own work is translation, load-shedding replies, and
streaming:

* ``POST /v1/jobs`` — body ``{"spec": {...}, "options": {...}}``;
  the tenant rides in ``options`` or the ``X-Repro-Tenant`` header.
  Admission failures (:class:`~repro.errors.AdmissionError` /
  :class:`~repro.errors.QuotaError`) surface as **429** with a
  ``Retry-After`` header derived from current queue depth — explicit
  load shedding, never silent queueing;
* ``GET /v1/jobs/<hash>`` — job snapshot;
* ``GET /v1/jobs/<hash>/result?timeout=`` — block (server-side, in
  chunks) for the result; replies with run accounting and the
  ``state_sha256`` digest of the final particle state so clients can
  assert bit-identity without shipping arrays over HTTP.  The digest is
  the service's, computed once where the state was in memory, so the
  gateway reads no checkpoint, even in front of a coordinator;
* ``POST /v1/jobs/<hash>/cancel`` — cancel a queued/running job;
* ``GET /v1/jobs/<hash>/events`` — SSE: per-slice ``slice`` events from
  the scheduler's observer seam (in-process backend) or ``status``
  transitions (remote backend), closed by one ``finished`` event;
* ``GET /v1/status`` — versioned describe document
  (:mod:`repro.serve.schema`, ``kind="gateway"``) with the backend's
  own describe nested;
* ``GET /healthz`` — unauthenticated liveness probe.

A job endpoint for a hash the service does not hold — never submitted,
or finished before the last ``KEEP_FINISHED`` jobs — replies **404**
with ``error_type`` ``UnknownJobError``; resubmitting a completed spec
is answered from the result cache.

Auth reuses the serve-tier shared secret: when a token is configured
(``token=`` / ``configure(serve_token=)`` / ``REPRO_SERVE_TOKEN``),
every endpoint but ``/healthz`` requires ``Authorization: Bearer
<token>`` and replies **401** otherwise.  The same token is forwarded on
the coordinator connection, so one secret protects the whole path.

Everything here is standard library — no aiohttp, no frameworks — and
all blocking backend calls hop through ``run_in_executor`` so one slow
result wait never stalls the accept loop.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import traceback
from dataclasses import replace
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.config import resolve
from repro.errors import AdmissionError, ReproError, ServeError, UnknownJobError
from repro.serve.jobs import TERMINAL
from repro.serve.options import SubmitOptions, check_timeout
from repro.serve.remote import connect
from repro.serve.schema import DESCRIBE_VERSION
from repro.serve.service import JobService
from repro.serve.spec import JobSpec
from repro.serve.wire import format_addr, parse_addr

__all__ = ["Gateway"]

#: Upper bound on a request body (a JobSpec is tiny; anything bigger is
#: a client bug or abuse).
_MAX_BODY = 1 << 20
#: Executor-side wait slice while a result endpoint blocks — short, so
#: pool threads rotate instead of pinning on one slow job.
_RESULT_SLICE_S = 0.25
#: Remote-backend SSE poll cadence (the coordinator has no push seam).
_SSE_POLL_S = 0.25
#: Retry-After ceiling (seconds).
_MAX_RETRY_AFTER_S = 60

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HTTPError(Exception):
    """Internal control flow: unwinds a handler into one JSON reply."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        error_type: str = "ServeError",
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.headers = headers or {}


def _error_response(exc: _HTTPError) -> bytes:
    return _json_response(
        exc.status,
        {"ok": False, "error": str(exc), "error_type": exc.error_type},
        exc.headers,
    )


def _json_response(
    status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
) -> bytes:
    body = json.dumps(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _sse_event(event: str, data: dict[str, Any]) -> bytes:
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode()


def _job_view(snap: dict[str, Any]) -> dict[str, Any]:
    """The ``job`` object of a reply, from the service's record snapshot."""
    job = {
        name: snap[name] for name in ("spec_hash", "status", "tenant", "dedup_count")
    }
    if snap["error"] is not None:
        job["error"] = snap["error"]["message"]
        job["error_type"] = snap["error"]["error"]
    return job


class Gateway:
    """Asyncio HTTP front end over the job service (see module docs).

    Parameters
    ----------
    addr:
        ``"host:port"`` to listen on; port ``0`` picks a free port (the
        bound address is :attr:`addr` after :meth:`start`).  ``None``
        resolves through ``configure(gateway_addr=)`` /
        ``REPRO_GATEWAY_ADDR``, defaulting to ``127.0.0.1:0``.
    backend:
        ``None`` for an in-process :class:`~repro.serve.JobService`
        (configured by ``service_kwargs`` — ``tenants=``,
        ``max_concurrent_jobs=``, ...), or a coordinator ``"host:port"``
        to front the distributed tier.
    token:
        Shared secret: required as ``Authorization: Bearer`` on every
        endpoint but ``/healthz`` *and* forwarded to a remote backend.
        Resolves through ``configure(serve_token=)`` /
        ``REPRO_SERVE_TOKEN``; ``None`` after resolution disables auth.
    """

    def __init__(
        self,
        addr: str | None = None,
        *,
        backend: str | None = None,
        token: str | None = None,
        **service_kwargs: Any,
    ) -> None:
        addr = resolve("gateway_addr", addr)
        self._bind_host, self._bind_port = parse_addr(addr)
        self.token = resolve("serve_token", token)
        self.backend = backend
        if backend is None:
            self._service = connect(None, **service_kwargs)
        else:
            if service_kwargs:
                raise ServeError(
                    f"{sorted(service_kwargs)} configure an in-process "
                    "service and don't apply when fronting a coordinator "
                    f"({backend}); set them on the coordinator/workers"
                )
            self._service = connect(backend, token=self.token)
        #: an in-process service has the slice-event seam and a local queue
        self._in_process = isinstance(self._service, JobService)
        self.addr: str | None = None
        self.requests_total = 0
        self.shed_total = 0
        self.auth_failures = 0
        self.streams_open = 0
        #: spec_hash -> asyncio queues of SSE subscribers (loop thread only)
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopping = threading.Event()
        self._startup_error: BaseException | None = None
        self._remove_listener: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        """Bind and serve on a background event loop; returns ``self``."""
        if self._thread is not None:
            return self
        if self._in_process:
            self._remove_listener = self._service.add_slice_listener(
                self._on_service_event
            )
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise ServeError(f"gateway failed to start: {self._startup_error}")
        if self.addr is None:
            raise ServeError("gateway failed to bind within 10s")
        return self

    def stop(self) -> None:
        """Stop serving and close the backend service."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._remove_listener is not None:
            self._remove_listener()
            self._remove_listener = None
        loop, event = self._loop, self._shutdown_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._service.close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_conn, self._bind_host, self._bind_port
        )
        sock = server.sockets[0]
        self.addr = format_addr(sock.getsockname()[:2])
        self._started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    # slice-event plumbing (service scheduler threads -> loop -> SSE)
    # ------------------------------------------------------------------
    def _on_service_event(self, event: dict[str, Any]) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        try:
            loop.call_soon_threadsafe(self._fan_out, dict(event))
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _fan_out(self, event: dict[str, Any]) -> None:
        queues = self._subscribers.get(event.get("spec_hash", ""))
        if not queues:
            return
        for q in list(queues):
            q.put_nowait(event)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # defensive: never kill the accept loop
            traceback.print_exc(file=sys.stderr)
            try:
                writer.write(_json_response(
                    500, {"ok": False, "error": str(exc),
                          "error_type": type(exc).__name__}
                ))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        if not request_line:
            return
        try:
            method, target, _version = request_line.decode().split(None, 2)
        except ValueError:
            writer.write(_json_response(400, {"ok": False, "error": "bad request line"}))
            await writer.drain()
            return
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        text = headers.get("content-length", "") or "0"
        if not (text.isascii() and text.isdigit()):
            writer.write(_error_response(_HTTPError(
                400, f"Content-Length must be a non-negative integer, got {text!r}"
            )))
            await writer.drain()
            return
        length = int(text)
        if length > _MAX_BODY:
            writer.write(_json_response(
                413, {"ok": False, "error": f"body exceeds {_MAX_BODY} bytes"}
            ))
            await writer.drain()
            return
        body = await reader.readexactly(length) if length else b""

        self.requests_total += 1
        obs.inc("serve.gateway.requests_total")
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        try:
            if path == "/healthz":
                writer.write(_json_response(200, {"ok": True}))
                await writer.drain()
                return
            self._check_auth(headers)
            if path == "/v1/status" and method == "GET":
                reply = await self._handle_status()
            elif path == "/v1/jobs" and method == "POST":
                reply = await self._handle_submit(body, headers)
            elif path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/events") and method == "GET":
                    await self._handle_events(rest[: -len("/events")].rstrip("/"), writer)
                    return
                reply = await self._handle_job(method, rest, query)
            else:
                raise _HTTPError(404, f"no route for {method} {path}")
        except _HTTPError as exc:
            writer.write(_error_response(exc))
            await writer.drain()
            return
        writer.write(reply)
        await writer.drain()

    def _check_auth(self, headers: dict[str, str]) -> None:
        if self.token is None:
            return
        auth = headers.get("authorization", "")
        if auth != f"Bearer {self.token}":
            self.auth_failures += 1
            obs.inc("serve.gateway.auth_failures_total")
            raise _HTTPError(
                401,
                "authentication failed: send Authorization: Bearer <token> "
                "(the serve token; see REPRO_SERVE_TOKEN)",
            )

    # ------------------------------------------------------------------
    # endpoint handlers
    # ------------------------------------------------------------------
    async def _handle_status(self) -> bytes:
        loop = asyncio.get_running_loop()
        try:
            backend = await loop.run_in_executor(None, self._service.describe)
        except ReproError as exc:
            backend = {"error": str(exc)}
        return _json_response(200, {"ok": True, "status": self.describe(backend)})

    async def _handle_submit(self, body: bytes, headers: dict[str, str]) -> bytes:
        payload = self._parse_json(body)
        if "spec" not in payload:
            raise _HTTPError(400, 'body must carry a "spec" object')
        try:
            spec = JobSpec.from_dict(payload["spec"])
            opts = SubmitOptions.from_wire(payload.get("options") or {})
        except (ReproError, TypeError, ValueError) as exc:
            raise _HTTPError(400, str(exc), error_type=type(exc).__name__)
        header_tenant = headers.get("x-repro-tenant")
        if opts.tenant is None and header_tenant:
            opts = replace(opts, tenant=header_tenant)
        loop = asyncio.get_running_loop()
        try:
            handle = await loop.run_in_executor(
                None, lambda: self._service.submit(spec, options=opts)
            )
        except AdmissionError as exc:
            self.shed_total += 1
            obs.inc("serve.gateway.shed_total")
            retry_after = await loop.run_in_executor(None, self._retry_after)
            raise _HTTPError(
                429, str(exc), error_type=type(exc).__name__,
                headers={"Retry-After": str(retry_after)},
            )
        except ReproError as exc:
            raise _HTTPError(400, str(exc), error_type=type(exc).__name__)
        return _json_response(
            200, {"ok": True, "job": _job_view(handle.record.snapshot())}
        )

    async def _handle_job(
        self, method: str, rest: str, query: dict[str, str]
    ) -> bytes:
        if rest.endswith("/result") and method == "GET":
            return await self._handle_result(
                rest[: -len("/result")].rstrip("/"), query
            )
        if rest.endswith("/cancel") and method == "POST":
            return await self._handle_cancel(rest[: -len("/cancel")].rstrip("/"))
        if "/" not in rest and method == "GET":
            snap = await self._ask(self._service.status, rest)
            return _json_response(200, {"ok": True, "job": _job_view(snap)})
        raise _HTTPError(404, f"no route for {method} /v1/jobs/{rest}")

    async def _ask(self, verb: Any, *args: Any) -> Any:
        """Run a blocking service verb off the loop; unknown jobs are 404."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, verb, *args)
        except UnknownJobError as exc:
            raise _HTTPError(404, str(exc), error_type="UnknownJobError")

    async def _handle_result(self, spec_hash: str, query: dict[str, str]) -> bytes:
        try:
            timeout = check_timeout(query.get("timeout"))
        except ServeError as exc:
            raise _HTTPError(400, str(exc))
        waited = 0.0
        while True:
            snap = await self._ask(self._service.wait, spec_hash, _RESULT_SLICE_S)
            if snap["status"] in TERMINAL:
                break
            waited += _RESULT_SLICE_S
            if timeout is not None and waited >= timeout:
                raise _HTTPError(
                    408, f"job {spec_hash[:12]} not finished within {timeout}s"
                )
        result = None
        if snap["status"] == "complete":
            result = {
                name: snap[name]
                for name in ("run_dir", "steps", "time", "from_cache", "state_sha256")
            }
        return _json_response(
            200, {"ok": True, "job": _job_view(snap), "result": result}
        )

    async def _handle_cancel(self, spec_hash: str) -> bytes:
        def cancel() -> tuple[bool, dict[str, Any]]:
            cancelled = self._service.cancel(spec_hash)
            return cancelled, self._service.status(spec_hash)

        cancelled, snap = await self._ask(cancel)
        return _json_response(200, {
            "ok": True,
            "cancelled": bool(cancelled),
            "job": _job_view(snap),
        })

    async def _handle_events(
        self, spec_hash: str, writer: asyncio.StreamWriter
    ) -> None:
        snap = await self._ask(self._service.status, spec_hash)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        self.streams_open += 1
        obs.set_gauge("serve.gateway.streams_open", self.streams_open)
        try:
            if self._in_process:
                await self._stream_service_events(spec_hash, writer)
            else:
                await self._stream_polled_events(spec_hash, snap, writer)
        finally:
            self.streams_open -= 1
            obs.set_gauge("serve.gateway.streams_open", self.streams_open)

    async def _stream_service_events(
        self, spec_hash: str, writer: asyncio.StreamWriter
    ) -> None:
        """Real per-slice events off the scheduler's observer seam."""
        q: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(spec_hash, []).append(q)
        try:
            while True:
                snap = await self._ask(self._service.status, spec_hash)
                if snap["status"] in TERMINAL:
                    # Finished before we subscribed, or the finished
                    # event raced the subscription: close it out.
                    writer.write(_sse_event("finished", _job_view(snap)))
                    await writer.drain()
                    return
                try:
                    while True:
                        event = await asyncio.wait_for(q.get(), timeout=_SSE_POLL_S)
                        kind = event.pop("type", "slice")
                        writer.write(_sse_event(kind, event))
                        await writer.drain()
                        if kind == "finished":
                            return
                except asyncio.TimeoutError:
                    continue  # a quiet poll interval: look at the record
        finally:
            queues = self._subscribers.get(spec_hash, [])
            if q in queues:
                queues.remove(q)
            if not queues:
                self._subscribers.pop(spec_hash, None)

    async def _stream_polled_events(
        self, spec_hash: str, snap: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Remote backend: no push seam, so stream status transitions."""
        last_status: str | None = None
        while snap["status"] not in TERMINAL:
            if snap["status"] != last_status:
                writer.write(_sse_event("status", _job_view(snap)))
                await writer.drain()
                last_status = snap["status"]
            await asyncio.sleep(_SSE_POLL_S)
            snap = await self._ask(self._service.status, spec_hash)
        writer.write(_sse_event("finished", _job_view(snap)))
        await writer.drain()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _parse_json(self, body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")
        return payload

    def _retry_after(self) -> int:
        """Back-pressure hint: deeper queue -> longer suggested backoff."""
        depth, drain = 0, 1
        try:
            described = self._service.describe()
            depth = int(described.get("queue_depth", 0))
            drain = described["settings"].get("max_concurrent_jobs") or len(
                described.get("workers", ())
            )
        except ReproError:
            pass
        return min(_MAX_RETRY_AFTER_S, 1 + depth // max(1, drain))

    def describe(self, backend: dict[str, Any] | None = None) -> dict[str, Any]:
        """The gateway's versioned describe document (kind ``gateway``)."""
        return {
            "describe_version": DESCRIBE_VERSION,
            "kind": "gateway",
            "addr": self.addr,
            "backend": self.backend or "in-process",
            "auth": self.token is not None,
            "requests_total": self.requests_total,
            "shed_total": self.shed_total,
            "auth_failures": self.auth_failures,
            "streams_open": self.streams_open,
            "backend_describe": backend,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Gateway(addr={self.addr!r}, backend={self.backend or 'in-process'!r}, "
            f"requests={self.requests_total})"
        )
