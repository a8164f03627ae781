"""Parallel map: an in-order loop or a thread pool, picked by the worker count.

The PTPM plans enumerate independent units of force work — target rows
(i), target rows against j-segments (j), walks (w / jw).
:class:`ExecutionEngine` fans those units out across CPU workers, subject
to one hard rule: **parallel output is bit-identical to serial**.  Tasks
are dispatched and their results reduced in fixed index order, each
task's arithmetic is self-contained (per-worker workspaces, no shared
accumulators), so the only thing the worker count changes is wall-clock
time.

Cutting a pass into tasks
-------------------------
A force pass on a compiled kernel backend is cut by its work, not by the
simulated device's work-groups (those stay in the timing model):
:meth:`ExecutionEngine.split` turns per-item work — interactions per
target row or per walk — into at most ``workers`` contiguous ranges of
similar total work, none smaller than :data:`MIN_TASK_WORK` interactions
unless it is the only one.  A pass under twice the minimum is therefore
one task, and a one-task ``map`` runs inline on the calling thread (still
through the retry policy and the fault injector), so a small pass pays
for no thread hand-off.  The minimum is where a second task starts to
pay on a two-core host (EXPERIMENTS.md "Work-cut dispatch and a WAL
ledger").  Each row's and each walk's sum depends only on its own target
and sources, so any cut gives the same bits.  The NumPy reference keeps
one task per simulated work-group or walk, which bounds its tile
temporaries.

Workers
-------
``workers=1``
    Plain in-order loop on the calling thread (the default; also the
    reference for the bit-equality tests).
``workers > 1``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor` of that
    size.  The force kernels release the GIL (NumPy's C inner loops, the
    ``cext`` library's ctypes calls), so tasks overlap on multi-core
    hosts; per-worker scratch comes for free because
    :func:`repro.exec.workspace.local_workspace` is thread-local.
    :class:`EnginePool` shares one such pool across many engines.

Failure handling
----------------
Long campaigns survive task failures instead of losing the run:

* **per-task retry** — a :class:`~repro.exec.faults.RetryPolicy` retries
  failed tasks with exponential backoff, bounded by an optional
  per-dispatch deadline;
* **deterministic fault injection** — a
  :class:`~repro.exec.faults.FaultInjector` plugged into the engine
  exercises the retry path reproducibly in tests and CI.

Because every task is a pure function of its inputs (per-worker
workspaces, fixed reduction order), retried work is idempotent and the
bit-equality guarantee survives every retry.

Observability: every ``map`` emits an ``exec.dispatch`` span (backend,
workers, task count), per-task ``exec.worker`` spans, ``exec.retry``
spans for recovered tasks, the ``tasks_total`` / ``task_retries_total``
counters and the ``workspace_bytes`` gauge.

The process-global default engine is serial; configure it with
:func:`repro.configure` (the CLI's ``--workers`` does this) or the
``REPRO_WORKERS`` environment variable, which is read when the engine is
first used (see :mod:`repro.config`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.faults import FaultInjector, RetryPolicy
from repro.exec.workspace import total_workspace_bytes

__all__ = [
    "MIN_TASK_WORK",
    "EnginePool",
    "ExecutionEngine",
    "get_default_engine",
    "set_default_engine",
]

T = TypeVar("T")
R = TypeVar("R")

#: Fewest interactions worth an engine task of their own: on the
#: two-core reference host two halves of an i pass lose to one task up
#: to 2.4 M interactions and win from 4.2 M (EXPERIMENTS.md "Work-cut
#: dispatch and a WAL ledger").
MIN_TASK_WORK = 1 << 21


def _checked_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def _run_task(
    fn: Callable[[T], R],
    item: T,
    index: int,
    policy: RetryPolicy | None,
    injector: FaultInjector | None,
    deadline: float | None,
) -> tuple[R, int, float, float]:
    """Run one task with retry/backoff.

    Returns ``(result, retries, retry_t0, retry_t1)`` where the last two
    bracket the recovery phase on :func:`time.perf_counter` (both 0.0
    when the first attempt succeeded).  ``deadline`` is an absolute
    :func:`time.monotonic` instant past which no further retry is
    attempted.
    """
    max_retries = policy.max_retries if policy is not None else 0
    attempt = 0
    retry_t0 = retry_t1 = 0.0
    while True:
        try:
            if injector is not None:
                injector.maybe_fail_task(index, attempt)
            result = fn(item)
            if attempt:
                retry_t1 = time.perf_counter()
            return result, attempt, retry_t0, retry_t1
        except Exception:
            if attempt == 0:
                retry_t0 = time.perf_counter()
            if attempt >= max_retries:
                raise
            if deadline is not None and time.monotonic() >= deadline:
                raise
            delay = policy.backoff_for(attempt) if policy is not None else 0.0
            if delay > 0.0:
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.monotonic()))
                time.sleep(delay)
            attempt += 1


class ExecutionEngine:
    """Deterministic parallel ``map`` over independent force-work units.

    One worker runs every task in order on the calling thread; more run
    them on a thread pool of that size.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        retry: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        shared_pool: ThreadPoolExecutor | None = None,
    ) -> None:
        self._workers = _checked_workers(workers)
        #: per-task retry policy (``None`` = fail fast, no deadline)
        self.retry = retry
        #: deterministic fault source for tests/CI (``None`` in production)
        self.fault_injector = fault_injector
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: externally owned thread pool (vended by :class:`EnginePool`);
        #: never shut down by this engine
        self._shared_pool = shared_pool
        #: tasks dispatched over this engine's lifetime
        self.tasks_total = 0
        #: map calls dispatched over this engine's lifetime
        self.dispatches = 0
        #: task retries performed over this engine's lifetime
        self.retries_total = 0

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def effective_backend(self) -> str:
        """``"thread"`` when dispatches fan out across a pool, else ``"serial"``."""
        return "thread" if self._workers > 1 else "serial"

    def describe(self) -> dict[str, Any]:
        """JSON-friendly engine description (recorded in BENCH artifacts)."""
        return {
            "backend": self.effective_backend,
            "workers": self._workers,
            "shared_pool": self._shared_pool is not None,
            "tasks_total": self.tasks_total,
            "dispatches": self.dispatches,
            "retries_total": self.retries_total,
        }

    # ------------------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._shared_pool is not None:
            return self._shared_pool
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the engine-owned thread pool (a new one forms on next
        use).  A shared pool belongs to its :class:`EnginePool` and is left
        running."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def split(self, work: Sequence[int] | np.ndarray) -> list[tuple[int, int]]:
        """Cut items of the given ``work`` into contiguous ``[a, b)`` ranges.

        The ranges cover every item in order, number at most
        :attr:`workers`, and have similar total work; none holds less
        than :data:`MIN_TASK_WORK` unless it is the only one, so a pass
        under twice the minimum is one range.  No items give the one
        range ``(0, 0)``.
        """
        ends = np.cumsum(np.asarray(work, dtype=np.int64))
        n = ends.size
        total = int(ends[-1]) if n else 0
        parts = min(self._workers, total // MIN_TASK_WORK)
        if parts <= 1:
            return [(0, n)]
        # cut where the work done so far comes nearest each k/parts share;
        # a cut that would leave either side under the minimum is dropped
        done = np.concatenate(([0], ends))  # work before item k
        shares = total * np.arange(1, parts) / parts
        hi = np.searchsorted(done, shares)
        cuts = np.where(done[hi] - shares <= shares - done[hi - 1], hi, hi - 1)
        bounds = [0]
        for cut in cuts.tolist():
            if (
                done[cut] - done[bounds[-1]] >= MIN_TASK_WORK
                and total - done[cut] >= MIN_TASK_WORK
            ):
                bounds.append(cut)
        bounds.append(n)
        return list(zip(bounds[:-1], bounds[1:]))

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        label: str = "tasks",
    ) -> list[R]:
        """Apply ``fn`` to every item; results in fixed index order.

        The reduction-order guarantee is what makes parallel force passes
        bit-identical to serial: whichever worker finishes first, result
        ``i`` always lands in slot ``i`` and downstream reductions
        consume slots in ascending order.  One item runs on the calling
        thread, whatever the worker count.
        """
        work: Sequence[T] = items if isinstance(items, Sequence) else list(items)
        parallel = self._workers > 1 and len(work) > 1
        self.dispatches += 1
        self.tasks_total += len(work)
        deadline = None
        if self.retry is not None and self.retry.deadline_s is not None:
            deadline = time.monotonic() + self.retry.deadline_s
        with obs.span(
            "exec.dispatch",
            backend="thread" if parallel else "serial",
            workers=self._workers if parallel else 1,
            tasks=len(work),
            label=label,
        ):
            obs.inc("tasks_total", len(work))
            if parallel:
                results = self._map_threads(fn, work, label, deadline)
            else:
                results = self._map_serial(fn, work, label, deadline)
            obs.set_gauge("workspace_bytes", total_workspace_bytes())
        return results

    def _account_retries(
        self, task: int, retries: int, label: str, rt0: float, rt1: float
    ) -> None:
        """Fold one task's recovery into engine stats and the obs stream."""
        if retries <= 0:
            return
        self.retries_total += retries
        obs.inc("task_retries_total", retries)
        if rt1 > rt0 > 0.0:
            obs.complete_span(
                "exec.retry", rt0, rt1, task=task, label=label, retries=retries
            )

    def _map_serial(
        self,
        fn: Callable[[T], R],
        work: Sequence[T],
        label: str,
        deadline: float | None,
    ) -> list[R]:
        results: list[R] = []
        for i, item in enumerate(work):
            with obs.span("exec.worker", task=i, label=label):
                result, retries, rt0, rt1 = _run_task(
                    fn, item, i, self.retry, self.fault_injector, deadline
                )
            self._account_retries(i, retries, label, rt0, rt1)
            results.append(result)
        return results

    def _map_threads(
        self,
        fn: Callable[[T], R],
        work: Sequence[T],
        label: str,
        deadline: float | None,
    ) -> list[R]:
        retry, injector = self.retry, self.fault_injector

        def timed(pair: tuple[int, T]) -> tuple[R, int, float, float, float, float, str]:
            i, item = pair
            t0 = time.perf_counter()
            result, retries, rt0, rt1 = _run_task(
                fn, item, i, retry, injector, deadline
            )
            return (
                result,
                retries,
                rt0,
                rt1,
                t0,
                time.perf_counter(),
                threading.current_thread().name,
            )

        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            out = list(self._executor().map(timed, enumerate(work), timeout=timeout))
        except FuturesTimeoutError as exc:
            raise ExecutionError(
                f"dispatch '{label}' ({len(work)} tasks) exceeded its "
                f"{self.retry.deadline_s:.3g}s deadline"
            ) from exc
        results: list[R] = []
        # Worker threads must not touch the (single-threaded) tracer, so
        # the spans are emitted here, from the dispatching thread, in task
        # order, with the wall times the workers measured.
        for i, (result, retries, rt0, rt1, t0, t1, worker) in enumerate(out):
            obs.complete_span(
                "exec.worker", t0, t1, task=i, label=label, worker=worker
            )
            self._account_retries(i, retries, label, rt0, rt1)
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# Shared thread pools
# ---------------------------------------------------------------------------

class EnginePool:
    """One thread pool shared by many :class:`ExecutionEngine` instances.

    The job service runs several small-N simulations at once; giving each
    its own thread pool would oversubscribe the host, while a single
    engine shared across jobs would entangle their retry state and
    counters.  ``EnginePool`` splits the difference, mirroring the paper's
    occupancy argument (many independent work streams feeding one set of
    compute units):

    * **pool sharing** — every vended engine dispatches into the same
      thread pool, so concurrent jobs interleave their force tasks across
      one fixed set of workers;
    * **per-engine fault domains** — retry policy, fault injection and
      counters live on each vended engine, so one job's faults never
      touch its siblings.

    ``workers=1`` vends serial engines (no pool exists).  The pool owns
    the executor: closing a vended engine never shuts it down, closing
    the pool does.
    """

    def __init__(self, workers: int = 2) -> None:
        self.workers = _checked_workers(workers)
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False
        #: engines vended over this pool's lifetime
        self.engines_vended = 0

    def _shared_executor(self) -> ThreadPoolExecutor | None:
        if self.workers == 1:
            return None
        with self._lock:
            if self._closed:
                raise ExecutionError("EnginePool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-pool"
                )
            return self._executor

    def engine(
        self,
        *,
        retry: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> ExecutionEngine:
        """Vend an engine with its own fault domain over the shared pool."""
        engine = ExecutionEngine(
            self.workers,
            retry=retry,
            fault_injector=fault_injector,
            shared_pool=self._shared_executor(),
        )
        self.engines_vended += 1
        return engine

    def close(self) -> None:
        """Shut down the shared executor (vended engines must be done)."""
        with self._lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def describe(self) -> dict:
        """Introspection snapshot (workers, vend count, state)."""
        return {
            "workers": self.workers,
            "engines_vended": self.engines_vended,
            "closed": self._closed,
        }

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EnginePool(workers={self.workers}, vended={self.engines_vended})"


# ---------------------------------------------------------------------------
# Process-global default engine
# ---------------------------------------------------------------------------

_default_engine: ExecutionEngine | None = None
_default_engine_lock = threading.Lock()


def get_default_engine() -> ExecutionEngine:
    """The engine plans fall back to when constructed without one.

    Built on first use from the engine rows of the settings table
    (:func:`repro.config.engine_from_settings`).
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            from repro.config import engine_from_settings

            _default_engine = engine_from_settings()
        return _default_engine


def set_default_engine(engine: ExecutionEngine | None) -> ExecutionEngine | None:
    """Install ``engine`` as the default and return the one it replaced.

    ``None`` leaves no default, so the next :func:`get_default_engine`
    builds one from the settings table.
    """
    global _default_engine
    with _default_engine_lock:
        replaced, _default_engine = _default_engine, engine
    return replaced
