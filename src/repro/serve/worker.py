"""A worker shard: one in-process job service fed from a coordinator.

Each worker wraps today's :class:`~repro.serve.JobService` — scheduler,
engine pool, retry machinery, result cache, ledger — and adds a
thin pull loop: ask the coordinator for the ``next`` job whenever local
capacity allows, submit it to the service, report ``done`` (or the
failure) when the handle resolves.  A worker *is* the fault domain: its
pool, its retries, its ledger rows (stamped with its ``shard`` name).

Workers share the coordinator's cache directory over a shared
filesystem.  That makes three things fall out for free:

* results travel as run-directory paths, never as serialized arrays;
* a spec completed by any shard is a cache hit for every other shard;
* a shard killed mid-run leaves an orphaned entry that the *next* shard
  assigned the job adopts via ``resume_orphans`` — continuing from the
  orphan's last checkpoint, bit-identical to an uninterrupted run.

Two ways down: :meth:`Worker.stop` drains gracefully (finish claimed
jobs, report them, disconnect); :meth:`Worker.kill` simulates a crash —
abort the scheduler mid-run and drop the socket without reporting, so
the coordinator requeues the claimed jobs for the surviving shards (the
fault path the distributed tests exercise).
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.config import resolve
from repro.errors import ServeError
from repro.serve.options import SubmitOptions
from repro.serve.service import JobHandle, JobService
from repro.serve.spec import JobSpec
from repro.serve.wire import encode_error, parse_addr, recv_msg, send_msg

__all__ = ["Worker"]

#: How long one ``next`` RPC parks on the coordinator before returning
#: empty-handed (bounds shutdown latency; the loop just asks again).
_NEXT_TIMEOUT_S = 0.5
#: Local poll cadence while watching outstanding handles.
_POLL_S = 0.02


class Worker:
    """Pulls jobs from a coordinator into a local :class:`JobService`.

    Parameters
    ----------
    addr:
        The coordinator's ``"host:port"``.
    shard:
        This worker's fault-domain name; stamped on its ledger rows and
        reported to the coordinator.
    cache_dir:
        Result-cache root — must be the same directory the coordinator
        and the other shards use.
    max_idle_s:
        Self-exit after this long with no work claimed and none offered
        (CI workers use it to wind down after the batch drains); ``None``
        keeps the worker alive until :meth:`stop`.
    token:
        Shared secret for a token-protected coordinator; resolves
        through ``configure(serve_token=)`` / ``REPRO_SERVE_TOKEN`` when
        omitted.
    service_kwargs:
        Everything else (``max_concurrent_jobs``, ``pool_workers``,
        ``verify``, ``ledger``, ...) configures the internal
        :class:`JobService`.
    """

    def __init__(
        self,
        addr: str,
        shard: str,
        *,
        cache_dir: str | Path | None = None,
        max_idle_s: float | None = None,
        token: str | None = None,
        **service_kwargs: Any,
    ) -> None:
        self.addr = addr
        self.shard = shard
        self.max_idle_s = max_idle_s
        self._token = resolve("serve_token", token)
        self.service = JobService(
            shard=shard,
            resume_orphans=True,
            cache_dir=cache_dir,
            **service_kwargs,
        )
        self._prefetch = max(1, self.service.max_concurrent_jobs)
        self._sock: socket.socket | None = None
        self._stop = threading.Event()
        self._killed = False
        self._thread: threading.Thread | None = None
        #: spec_hash -> (handle, spec) claimed from the coordinator
        self._outstanding: dict[str, tuple[JobHandle, JobSpec]] = {}
        self.jobs_done = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Worker":
        """Connect and pull in a background thread; returns ``self``."""
        if self._thread is None:
            self._connect()
            self._thread = threading.Thread(
                target=self._loop, name=f"repro-worker-{self.shard}",
                daemon=True,
            )
            self._thread.start()
        return self

    def run(self) -> None:
        """Connect and pull on the calling thread until stopped.

        The blocking form the ``repro-nbody serve worker`` command uses;
        tears the service down when the loop exits (idle timeout or
        coordinator shutdown).
        """
        self._connect()
        try:
            self._loop()
        finally:
            if not self._killed:
                self._disconnect()
                self.service.close(drain=True)

    def stop(self) -> None:
        """Graceful shutdown: finish claimed jobs, report, disconnect."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._drain_outstanding()
        self._disconnect()
        self.service.close(drain=True)

    def kill(self) -> None:
        """Crash simulation: abandon claimed jobs without reporting.

        The scheduler aborts after its current slices (leaving resumable
        orphans in the shared cache) and the socket drops without a
        goodbye, so the coordinator requeues everything this worker had
        claimed.
        """
        self._killed = True
        self._stop.set()
        # Abort local execution first so no thread is still writing into
        # an orphan directory when a surviving shard adopts it.
        self.service.close(drain=False)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._outstanding.clear()
        self._disconnect()

    def __enter__(self) -> "Worker":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # socket plumbing (single-threaded: only the pull loop touches it)
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        host, port = parse_addr(self.addr)
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        reply = self._rpc({"op": "hello", "shard": self.shard})
        if not reply.get("ok"):
            raise ServeError(f"coordinator refused hello: {reply}")

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _rpc(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            raise ServeError("worker is not connected")
        if self._token is not None:
            msg = {**msg, "token": self._token}
        send_msg(self._sock, msg)
        reply = recv_msg(self._sock)
        if reply is None:
            raise ServeError("coordinator closed the connection")
        return reply

    # ------------------------------------------------------------------
    # pull loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        idle_since = time.monotonic()
        try:
            while not self._stop.is_set():
                progressed = self._report_finished()
                if len(self._outstanding) < self._prefetch:
                    if self._claim_next():
                        progressed = True
                else:
                    time.sleep(_POLL_S)
                if progressed or self._outstanding:
                    idle_since = time.monotonic()
                elif (
                    self.max_idle_s is not None
                    and time.monotonic() - idle_since >= self.max_idle_s
                ):
                    obs.inc("serve.worker.idle_exits_total")
                    break
        except (ServeError, OSError):
            # Coordinator gone (stopped or crashed): nothing to report to.
            pass
        finally:
            if not self._killed:
                try:
                    self._drain_outstanding()
                except (ServeError, OSError):
                    pass

    def _claim_next(self) -> bool:
        reply = self._rpc(
            {"op": "next", "shard": self.shard, "timeout": _NEXT_TIMEOUT_S}
        )
        if not reply.get("ok"):
            raise ServeError(f"next rejected: {reply}")
        payload = reply.get("job")
        if payload is None:
            return False
        spec = JobSpec.from_dict(payload["spec"])
        wire_options = payload.get("options")
        options = (
            None if wire_options is None
            else SubmitOptions.from_wire(wire_options)
        )
        handle = self.service.submit(spec, options=options)
        self._outstanding[payload["spec_hash"]] = (handle, spec)
        obs.inc("serve.worker.claims_total")
        return True

    def _report_finished(self) -> bool:
        reported = False
        for spec_hash in list(self._outstanding):
            handle, _spec = self._outstanding[spec_hash]
            if not handle.done():
                continue
            self._report(spec_hash, handle)
            del self._outstanding[spec_hash]
            reported = True
        return reported

    def _report(self, spec_hash: str, handle: JobHandle) -> None:
        if handle.error is not None:
            self.jobs_failed += 1
            msg: dict[str, Any] = {
                "op": "done",
                "spec_hash": spec_hash,
                "error": encode_error(handle.error),
            }
        else:
            result = handle.result(timeout=0)
            self.jobs_done += 1
            msg = {
                "op": "done",
                "spec_hash": spec_hash,
                "run_dir": str(result.run_dir),
                "from_cache": result.from_cache,
            }
        reply = self._rpc(msg)
        if not reply.get("ok"):
            raise ServeError(f"done rejected: {reply}")

    def _drain_outstanding(self) -> None:
        """Finish and report every claimed job (graceful stop path)."""
        for spec_hash in list(self._outstanding):
            handle, _spec = self._outstanding.pop(spec_hash)
            handle.wait(timeout=None)
            self._report(spec_hash, handle)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "addr": self.addr,
            "outstanding": len(self._outstanding),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "service": self.service.describe(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Worker(shard={self.shard!r}, addr={self.addr!r}, "
            f"outstanding={len(self._outstanding)})"
        )
