"""Step-sliced scheduler: many live sessions over one shared worker pool.

The paper's time-axis insight — overlap independent work along time so
the hardware never idles — applied to whole *runs*: instead of executing
jobs back-to-back, the scheduler keeps up to ``max_live`` sessions in
flight and round-robins them in ``steps_per_slice``-step slices.  While
one job's force pass waits on the shared :class:`~repro.exec.EnginePool`,
another job's slice can occupy it.

Correctness does not depend on scheduling order: each session's steps
are strictly sequential, forces are deterministic on every backend, and
periodic checkpoints fire on absolute step counts — so a job's final
state is bit-identical whether it ran alone, sliced against seven
siblings, or resumed after a crash.  The scheduler buys throughput and
fairness, never a different answer.

Jobs are anything exposing the small protocol the runner drives:
``begin()``, ``advance(k) -> bool`` (True when finished), ``finish()``,
``fail(exc)`` — see ``repro.serve.service._Job`` for the real one.

``slice_hook`` is the scheduler's verification seam: called after every
successful slice with ``(job, done)``, and a raising hook fails the job
exactly like a raising ``advance`` — the serve layer uses it to run
:class:`~repro.check.RunGuard` invariant checks each slice, so a job
serving bad physics dies at slice granularity rather than at completion.

``slice_observer`` is the observability twin of that seam: called after
the hook with ``(job, done, wall_s)`` where ``wall_s`` is the measured
wall-clock duration of the ``advance`` call.  The serve layer points it
at the run ledger and the labeled ``serve.slice_seconds`` histogram.  An
observer must never influence the run, so a raising observer is a bug
surfaced to the runner thread, not a job failure.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from repro.errors import ServeError
from repro.serve.tenancy import FairJobQueue

__all__ = ["Scheduler"]

#: How long a runner blocks on the queue before re-checking shutdown.
_POLL_S = 0.05


class Scheduler:
    """Drains a :class:`FairJobQueue` through round-robin step slices."""

    def __init__(
        self,
        queue: FairJobQueue,
        *,
        max_live: int = 2,
        runner_threads: int | None = None,
        steps_per_slice: int = 8,
        slice_hook: Callable[[Any, bool], None] | None = None,
        slice_observer: Callable[[Any, bool, float], None] | None = None,
    ) -> None:
        if max_live < 1:
            raise ServeError(f"max_live must be >= 1, got {max_live}")
        if steps_per_slice < 1:
            raise ServeError(
                f"steps_per_slice must be >= 1, got {steps_per_slice}"
            )
        runner_threads = max_live if runner_threads is None else runner_threads
        if runner_threads < 1:
            raise ServeError(
                f"runner_threads must be >= 1, got {runner_threads}"
            )
        self.queue = queue
        self.max_live = max_live
        self.runner_threads = runner_threads
        self.steps_per_slice = steps_per_slice
        self.slice_hook = slice_hook
        self.slice_observer = slice_observer
        self._ready: deque[Any] = deque()
        self._lock = threading.Lock()
        self._live = 0
        self._abort = False
        self._threads: list[threading.Thread] = []
        #: slices executed (observability)
        self.slices = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the runner threads (idempotent)."""
        if self._threads:
            return
        for i in range(self.runner_threads):
            t = threading.Thread(
                target=self._run, name=f"repro-serve-runner-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the runners.

        ``drain=True`` closes the queue and lets runners finish every
        queued and live job first; ``drain=False`` aborts after the
        current slices, failing whatever remains (each abandoned job's
        ``fail`` fires with :class:`ServeError`).
        """
        self.queue.close()
        if not drain:
            with self._lock:
                self._abort = True
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        if not drain:
            self._fail_remaining()

    def _fail_remaining(self) -> None:
        leftovers = []
        with self._lock:
            leftovers.extend(self._ready)
            self._ready.clear()
            self._live -= len(leftovers)
        while True:
            item = self.queue.pop(timeout=0)
            if item is None:
                break
            leftovers.append(item)
        for job in leftovers:
            job.fail(ServeError("scheduler stopped before job completed"))

    @property
    def live(self) -> int:
        """Sessions currently in flight (begun, not finished)."""
        with self._lock:
            return self._live

    @property
    def idle(self) -> bool:
        """No live sessions and nothing queued."""
        return self.live == 0 and len(self.queue) == 0

    # ------------------------------------------------------------------
    # runner
    # ------------------------------------------------------------------
    def _take_ready(self) -> Any | None:
        with self._lock:
            if self._ready:
                return self._ready.popleft()
            return None

    def _admit(self) -> Any | None:
        """Pop a queued job if the live budget allows; else None."""
        with self._lock:
            if self._live >= self.max_live:
                return None
            self._live += 1
        job = self.queue.pop(timeout=_POLL_S)
        if job is None:
            with self._lock:
                self._live -= 1
            return None
        try:
            job.begin()
        except Exception as exc:
            with self._lock:
                self._live -= 1
            job.fail(exc)
            return None
        return job

    def _run(self) -> None:
        while True:
            with self._lock:
                if self._abort:
                    return
            job = self._take_ready()
            if job is None:
                job = self._admit()
            if job is None:
                if self.queue.closed and self.idle:
                    return
                # Over the live budget with nothing ready: yield briefly
                # instead of spinning (the budget path blocks in pop()).
                time.sleep(0.001)
                continue
            try:
                t0 = time.perf_counter()
                done = job.advance(self.steps_per_slice)
                slice_wall = time.perf_counter() - t0
                if self.slice_hook is not None:
                    self.slice_hook(job, done)
            except Exception as exc:
                with self._lock:
                    self._live -= 1
                job.fail(exc)
                continue
            if self.slice_observer is not None:
                self.slice_observer(job, done, slice_wall)
            with self._lock:
                self.slices += 1
                if done:
                    self._live -= 1
                else:
                    self._ready.append(job)
            if done:
                job.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Scheduler(live={self.live}, max_live={self.max_live}, "
            f"runners={self.runner_threads}, "
            f"steps_per_slice={self.steps_per_slice})"
        )
