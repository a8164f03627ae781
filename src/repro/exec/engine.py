"""Parallel map backend: serial / thread-pool / process-pool execution.

The PTPM plans enumerate independent units of force work — work-group
target ranges (i), i-block × j-segment rectangles (j), walks (w / jw).
:class:`ExecutionEngine` fans those units out across CPU workers the same
way the simulated device fans work-groups across compute units, subject to
one hard rule: **parallel output is bit-identical to serial**.  Tasks are
dispatched and their results reduced in fixed index order, each task's
arithmetic is self-contained (per-worker workspaces, no shared
accumulators), so the only thing a backend changes is wall-clock time.

Backends
--------
``serial``
    Plain in-order loop (the default; also the reference for the
    bit-equality tests).
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy
    releases the GIL inside its C inner loops, so the blocked force
    kernels overlap on multi-core hosts; per-worker scratch comes for
    free because :func:`repro.exec.workspace.local_workspace` is
    thread-local.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` for GIL-bound
    workloads.  Task functions must be picklable — the plans use
    ``functools.partial`` over module-level functions for exactly this
    reason.

Failure handling
----------------
Long campaigns survive worker failures instead of losing the run:

* **per-task retry** — a :class:`~repro.exec.faults.RetryPolicy` retries
  failed tasks with exponential backoff, bounded by an optional
  per-dispatch deadline;
* **graceful degradation** — when a backend's pool dies
  (``BrokenProcessPool`` et al.), the engine falls back along
  ``process -> thread -> serial`` and re-dispatches; the degradation is
  sticky for the engine's lifetime (the dead backend is not retried);
* **deterministic fault injection** — a
  :class:`~repro.exec.faults.FaultInjector` plugged into the engine
  exercises both paths reproducibly in tests and CI.

Because every task is a pure function of its inputs (per-worker
workspaces, fixed reduction order), retried and re-dispatched work is
idempotent and the bit-equality guarantee survives every failure path.

Observability: every ``map`` emits an ``exec.dispatch`` span (backend,
workers, task count), per-task ``exec.worker`` spans (serial and thread
backends; process workers have incomparable clocks), ``exec.retry``
spans for recovered tasks, ``exec.fallback`` spans around degraded
re-dispatches, the ``tasks_total`` / ``task_retries_total`` /
``exec_fallbacks_total`` counters and the ``workspace_bytes`` gauge.

The process-global default engine is serial; configure it with
:func:`repro.configure` (the CLI's ``--workers`` does this) or the
``REPRO_WORKERS`` / ``REPRO_EXEC_BACKEND`` environment variables, which
are read when the engine is first used (see :mod:`repro.config`).
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro import obs
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.faults import (
    FaultInjector,
    InjectedBackendDeath,
    RetryPolicy,
)
from repro.exec.workspace import total_workspace_bytes

__all__ = [
    "BACKENDS",
    "FALLBACK_CHAIN",
    "ExecConfig",
    "EnginePool",
    "ExecutionEngine",
    "get_default_engine",
    "set_default_engine",
]

T = TypeVar("T")
R = TypeVar("R")

#: Recognised parallel map backends.
BACKENDS = ("serial", "thread", "process")

#: Degradation chain when a backend's pool dies mid-dispatch.
FALLBACK_CHAIN = {"process": "thread", "thread": "serial"}

#: Backend rank for sticky degradation (never climb back up the chain).
_BACKEND_RANK = {"serial": 0, "thread": 1, "process": 2}


@dataclass(frozen=True)
class ExecConfig:
    """How force work fans out across CPU workers."""

    backend: str = "serial"
    workers: int = 1
    #: tasks per process-pool submission; ``None`` derives one from the
    #: task count (thread pools always submit per-task).
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown exec backend '{self.backend}'; choose from {BACKENDS}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    @property
    def parallel(self) -> bool:
        """Whether this config can actually run tasks concurrently."""
        return self.backend != "serial" and self.workers > 1


# ---------------------------------------------------------------------------
# Retrying task wrappers (module-level so process pools can pickle them)
# ---------------------------------------------------------------------------

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
    attempted (monotonic clocks are system-wide on the platforms we run
    on, so the instant is meaningful inside pool workers too).
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
        except (KeyboardInterrupt, SystemExit, InjectedBackendDeath):
            raise
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


def _process_task(
    fn: Callable[[T], R],
    policy: RetryPolicy | None,
    injector: FaultInjector | None,
    deadline: float | None,
    pair: tuple[int, T],
) -> tuple[R, int]:
    """Process-pool adapter around :func:`_run_task` (drops wall times)."""
    index, item = pair
    result, retries, _, _ = _run_task(fn, item, index, policy, injector, deadline)
    return result, retries


def _init_worker_kernel_backend(name: str) -> None:
    """Process-pool initializer: adopt the parent's kernel-backend choice.

    Runs in the worker before any task; tasks that resolve the backend
    themselves (plan tasks pass an explicit name) are unaffected.
    """
    from repro.config import configure

    configure(kernel_backend=name)


class ExecutionEngine:
    """Deterministic parallel ``map`` over independent force-work units."""

    def __init__(
        self,
        config: ExecConfig | None = None,
        *,
        backend: str | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        retry: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        shared_pool: Executor | None = None,
    ) -> None:
        if config is None:
            config = ExecConfig(
                backend=backend or ("serial" if (workers or 1) <= 1 else "thread"),
                workers=workers or 1,
                chunk_size=chunk_size,
            )
        elif backend is not None or workers is not None or chunk_size is not None:
            raise ConfigurationError(
                "pass either an ExecConfig or keyword overrides, not both"
            )
        self.config = config
        #: per-task retry policy (``None`` = fail fast, no deadline)
        self.retry = retry
        #: deterministic fault source for tests/CI (``None`` in production)
        self.fault_injector = fault_injector
        self._pool: Executor | None = None
        self._pool_backend: str | None = None
        self._pool_lock = threading.Lock()
        #: externally owned executor for this engine's configured backend
        #: (vended by :class:`EnginePool`); never shut down by this engine
        self._shared_pool = shared_pool
        #: set when a (possibly shared) pool died under this engine — the
        #: engine stops using the shared pool but leaves it running for
        #: its siblings (per-engine fault domain)
        self._shared_detached = False
        #: sticky degraded backend after a pool death (never climbs back)
        self._degraded_backend: str | None = None
        #: tasks dispatched over this engine's lifetime
        self.tasks_total = 0
        #: map calls dispatched over this engine's lifetime
        self.dispatches = 0
        #: task retries performed over this engine's lifetime
        self.retries_total = 0
        #: backend degradations, as ``(from, to)`` pairs in order
        self.fallbacks: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def effective_backend(self) -> str:
        """The backend dispatches actually use (after any degradation)."""
        if self._degraded_backend is None:
            return self.config.backend
        if _BACKEND_RANK[self._degraded_backend] < _BACKEND_RANK[self.config.backend]:
            return self._degraded_backend
        return self.config.backend

    def describe(self) -> dict[str, Any]:
        """JSON-friendly engine description (recorded in BENCH artifacts)."""
        return {
            "backend": self.config.backend,
            "effective_backend": self.effective_backend,
            "workers": self.config.workers,
            "shared_pool": self._shared_pool is not None,
            "tasks_total": self.tasks_total,
            "dispatches": self.dispatches,
            "retries_total": self.retries_total,
            "fallbacks": [list(pair) for pair in self.fallbacks],
        }

    # ------------------------------------------------------------------
    def _executor(self, backend: str) -> Executor:
        if (
            self._shared_pool is not None
            and not self._shared_detached
            and backend == self.config.backend
        ):
            return self._shared_pool
        with self._pool_lock:
            if self._pool is not None and self._pool_backend != backend:
                self._pool.shutdown(wait=False)
                self._pool = None
            if self._pool is None:
                if backend == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix="repro-exec",
                    )
                else:
                    # Carry the parent's kernel-backend selection into
                    # worker processes: in-process configure() overrides
                    # don't survive fork/spawn, only the environment does.
                    from repro.config import resolve

                    self._pool = ProcessPoolExecutor(
                        max_workers=self.config.workers,
                        initializer=_init_worker_kernel_backend,
                        initargs=(resolve("kernel_backend"),),
                    )
                self._pool_backend = backend
            return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool without waiting on it.

        A shared pool (from an :class:`EnginePool`) is *detached*, not shut
        down: the death may be specific to this engine (an injected fault)
        and sibling engines keep dispatching into the shared executor.
        """
        with self._pool_lock:
            self._shared_detached = True
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
                self._pool_backend = None

    def close(self) -> None:
        """Shut down the engine-owned worker pool (a new one forms on next
        use).  A shared pool belongs to its :class:`EnginePool` and is left
        running."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_backend = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
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
        consume slots in ascending order.
        """
        work: Sequence[T] = items if isinstance(items, Sequence) else list(items)
        cfg = self.config
        backend = self.effective_backend
        run_parallel = (
            backend != "serial" and cfg.workers > 1 and len(work) > 1
        )
        if not run_parallel:
            backend = "serial"
        self.dispatches += 1
        self.tasks_total += len(work)
        dispatch_index = self.dispatches - 1
        with obs.span(
            "exec.dispatch",
            backend=backend,
            workers=cfg.workers if run_parallel else 1,
            tasks=len(work),
            label=label,
        ):
            obs.inc("tasks_total", len(work))
            results = self._dispatch(fn, work, label, backend, dispatch_index)
            obs.set_gauge("workspace_bytes", total_workspace_bytes())
        return results

    def _dispatch(
        self,
        fn: Callable[[T], R],
        work: Sequence[T],
        label: str,
        backend: str,
        dispatch_index: int,
    ) -> list[R]:
        """Run one map on ``backend``, degrading down the chain on pool death."""
        deadline = None
        if self.retry is not None and self.retry.deadline_s is not None:
            deadline = time.monotonic() + self.retry.deadline_s
        try:
            if backend == "serial":
                return self._map_serial(fn, work, label, deadline)
            if self.fault_injector is not None:
                self.fault_injector.maybe_kill_dispatch(dispatch_index, backend)
            if backend == "thread":
                return self._map_threads(fn, work, label, deadline)
            return self._map_processes(fn, work, deadline)
        except FuturesTimeoutError as exc:
            if deadline is None:
                raise
            raise ExecutionError(
                f"dispatch '{label}' ({len(work)} tasks, backend '{backend}') "
                f"exceeded its {self.retry.deadline_s:.3g}s deadline"
            ) from exc
        except (BrokenExecutor, InjectedBackendDeath) as exc:
            next_backend = FALLBACK_CHAIN[backend]
            self._discard_pool()
            self._degraded_backend = next_backend
            self.fallbacks.append((backend, next_backend))
            obs.inc("exec_fallbacks_total")
            warnings.warn(
                f"exec backend '{backend}' died ({type(exc).__name__}); "
                f"falling back to '{next_backend}' for this engine",
                RuntimeWarning,
                stacklevel=3,
            )
            with obs.span(
                "exec.fallback",
                label=label,
                from_backend=backend,
                to_backend=next_backend,
                reason=type(exc).__name__,
            ):
                return self._dispatch(fn, work, label, next_backend, dispatch_index)

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

    # -- backends -------------------------------------------------------
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
        out = list(
            self._executor("thread").map(timed, enumerate(work), timeout=timeout)
        )
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

    def _map_processes(
        self, fn: Callable[[T], R], work: Sequence[T], deadline: float | None
    ) -> list[R]:
        chunk = self.config.chunk_size or max(
            1, len(work) // (self.config.workers * 4)
        )
        task_fn = partial(
            _process_task, fn, self.retry, self.fault_injector, deadline
        )
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        out = list(
            self._executor("process").map(
                task_fn, list(enumerate(work)), chunksize=chunk, timeout=timeout
            )
        )
        results: list[R] = []
        # Process workers have incomparable perf_counter clocks, so only
        # the retry *counts* survive the boundary (no exec.retry spans).
        for i, (result, retries) in enumerate(out):
            self._account_retries(i, retries, "", 0.0, 0.0)
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# Shared worker pools
# ---------------------------------------------------------------------------

class EnginePool:
    """One worker pool shared by many :class:`ExecutionEngine` instances.

    The job service runs several small-N simulations at once; giving each
    its own thread/process pool would oversubscribe the host, while a
    single engine shared across jobs would entangle their failure state.
    ``EnginePool`` splits the difference, mirroring the paper's occupancy
    argument (many independent work streams feeding one set of compute
    units):

    * **pool sharing** — every vended engine dispatches into the same
      executor, so concurrent jobs interleave their force tasks across
      one fixed set of workers;
    * **per-engine fault domains** — retry policy, fault injection and
      backend-degradation state live on each vended engine.  When a
      dispatch dies under one engine it *detaches* from the shared pool
      and degrades down the fallback chain alone; sibling engines keep
      using the pool untouched.

    The ``serial`` backend vends plain serial engines (no pool exists).
    The pool owns the executor: closing a vended engine never shuts it
    down, closing the pool does.
    """

    def __init__(
        self,
        backend: str = "thread",
        workers: int = 2,
        *,
        chunk_size: int | None = None,
    ) -> None:
        # ExecConfig performs the backend/workers/chunk_size validation.
        self.config = ExecConfig(
            backend=backend, workers=workers, chunk_size=chunk_size
        )
        self._executor: Executor | None = None
        self._lock = threading.Lock()
        self._closed = False
        #: engines vended over this pool's lifetime
        self.engines_vended = 0

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def workers(self) -> int:
        return self.config.workers

    def _shared_executor(self) -> Executor | None:
        if self.config.backend == "serial":
            return None
        with self._lock:
            if self._closed:
                raise ExecutionError("EnginePool is closed")
            if self._executor is None:
                if self.config.backend == "thread":
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix="repro-pool",
                    )
                else:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.config.workers
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
            self.config,
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
        """Introspection snapshot (backend, workers, vend count, state)."""
        return {
            "backend": self.config.backend,
            "workers": self.config.workers,
            "chunk_size": self.config.chunk_size,
            "engines_vended": self.engines_vended,
            "closed": self._closed,
        }

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnginePool(backend={self.config.backend!r}, "
            f"workers={self.config.workers}, vended={self.engines_vended})"
        )


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
