"""Unified configuration entry point for the repro library.

One call configures everything the CLI flags configure — execution
parallelism, fault tolerance, and observability::

    import repro

    repro.configure(workers=4, exec_backend="process", max_retries=3,
                    trace=True)

Exec-related keywords rebuild the process-global default
:class:`~repro.exec.ExecutionEngine` (what plans constructed without an
explicit ``engine=`` dispatch through); ``trace`` switches
:mod:`repro.obs` on or off.  Keywords left as ``None`` leave that
subsystem untouched, so ``repro.configure(trace=True)`` does not clobber
a previously configured engine.
"""

from __future__ import annotations

from repro import obs
from repro.exec.engine import (
    ExecConfig,
    ExecutionEngine,
    get_default_engine,
    set_default_engine,
)
from repro.exec.faults import FaultInjector, RetryPolicy

__all__ = ["configure"]


def configure(
    *,
    workers: int | None = None,
    exec_backend: str | None = None,
    chunk_size: int | None = None,
    max_retries: int | None = None,
    retry_backoff_s: float | None = None,
    deadline_s: float | None = None,
    fault_injector: FaultInjector | None = None,
    trace: bool | None = None,
    max_concurrent_jobs: int | None = None,
    queue_capacity: int | None = None,
    cache_dir: str | None = None,
    serve_addr: str | None = None,
    serve_token: str | None = None,
    tenant: str | None = None,
    gateway_addr: str | None = None,
    verify: "bool | object | None" = None,
    ledger_dir: str | None = None,
    kernel_backend: str | None = None,
) -> ExecutionEngine:
    """Configure the library's global execution and observability state.

    Parameters
    ----------
    workers:
        CPU workers for the default execution engine (1 = serial).
    exec_backend:
        ``"serial"`` / ``"thread"`` / ``"process"``; defaults to
        ``"thread"`` when ``workers > 1``.
    chunk_size:
        Tasks per process-pool submission.
    max_retries, retry_backoff_s, deadline_s:
        Per-task retry policy for the default engine (see
        :class:`~repro.exec.RetryPolicy`).
    fault_injector:
        Deterministic fault source (tests/CI only).
    trace:
        ``True`` enables :mod:`repro.obs` (clearing prior data),
        ``False`` disables it, ``None`` leaves it unchanged.
    max_concurrent_jobs, queue_capacity, cache_dir, serve_addr:
        Defaults for :mod:`repro.serve` services created afterwards.
        ``serve_addr`` is the coordinator address
        :func:`repro.serve.connect` dials when called with no argument
        (``"host:port"``; unset = in-process).  Precedence (first hit
        wins): explicit ``connect()`` / ``JobService`` keywords, then
        these values, then the
        ``REPRO_SERVE_MAX_CONCURRENT_JOBS`` /
        ``REPRO_SERVE_QUEUE_CAPACITY`` / ``REPRO_SERVE_CACHE_DIR`` /
        ``REPRO_SERVE_ADDR`` environment variables, then the built-in
        defaults.
    serve_token:
        Shared secret for the serve wire protocol and the HTTP gateway:
        a coordinator or :class:`~repro.serve.Gateway` constructed with
        a token requires it from every client
        (``connect(addr, token=)`` / ``Authorization: Bearer``).  Env
        fallback ``REPRO_SERVE_TOKEN``.
    tenant:
        Default tenant label stamped on submissions that don't name one
        (fair scheduling and quotas are per tenant; see
        :class:`~repro.serve.TenantPolicy`).  Env fallback
        ``REPRO_TENANT``.
    gateway_addr:
        Default listen address for :class:`~repro.serve.Gateway` /
        ``repro-nbody serve gateway``.  Env fallback
        ``REPRO_GATEWAY_ADDR``.
    verify:
        Default invariant guarding for :class:`~repro.runtime.RunSession`
        objects (and hence served jobs) created afterwards: ``True``
        attaches a :class:`~repro.check.RunGuard` with the plan-default
        :class:`~repro.check.TolerancePolicy`, a policy instance pins
        explicit tolerances, ``False`` disables guarding even when
        ``REPRO_CHECK_ENABLED`` is set, and ``None`` leaves the current
        setting untouched.  Sessions constructed with an explicit
        ``guard=`` argument always win.
    ledger_dir:
        Directory the durable :class:`~repro.obs.ledger.RunLedger` is
        written to; sessions and serve services created afterwards
        append their run accounting there.  Precedence (first hit wins):
        explicit ``ledger=`` arguments, then this value, then the
        ``REPRO_LEDGER_DIR`` environment variable, then off.  ``None``
        leaves the current setting untouched.
    kernel_backend:
        Force-kernel backend for subsequent force passes (the
        ``--kernel-backend`` CLI flag calls this).  Precedence (first hit
        wins): explicit ``backend=`` arguments /
        ``PlanConfig.kernel_backend``, then this value, then the
        ``REPRO_KERNEL_BACKEND`` environment variable, then ``"numpy"``.
        Must be a *registered* name (:func:`repro.nbody.kernels.known_backends`);
        an unavailable one degrades to ``numpy`` at resolve time with a
        one-time warning.  ``None`` leaves the current setting untouched.

    Returns the default :class:`~repro.exec.ExecutionEngine` after any
    reconfiguration.
    """
    exec_kwargs = (
        workers,
        exec_backend,
        chunk_size,
        max_retries,
        retry_backoff_s,
        deadline_s,
        fault_injector,
    )
    if any(v is not None for v in exec_kwargs):
        n_workers = 1 if workers is None else workers
        backend = exec_backend or ("thread" if n_workers > 1 else "serial")
        retry = None
        if any(v is not None for v in (max_retries, retry_backoff_s, deadline_s)):
            retry = RetryPolicy(
                max_retries=0 if max_retries is None else max_retries,
                backoff_s=0.0 if retry_backoff_s is None else retry_backoff_s,
                deadline_s=deadline_s,
            )
        set_default_engine(
            ExecutionEngine(
                ExecConfig(
                    backend=backend, workers=n_workers, chunk_size=chunk_size
                ),
                retry=retry,
                fault_injector=fault_injector,
            )
        )
    if any(
        v is not None
        for v in (
            max_concurrent_jobs, queue_capacity, cache_dir, serve_addr,
            serve_token, tenant, gateway_addr,
        )
    ):
        from repro.serve.settings import set_overrides

        set_overrides(
            max_concurrent_jobs=max_concurrent_jobs,
            queue_capacity=queue_capacity,
            cache_dir=cache_dir,
            addr=serve_addr,
            token=serve_token,
            tenant=tenant,
            gateway_addr=gateway_addr,
        )
    if verify is not None:
        from repro.check.settings import set_verify_override

        set_verify_override(verify)
    if ledger_dir is not None:
        from repro.obs.settings import set_ledger_override

        set_ledger_override(ledger_dir)
    if kernel_backend is not None:
        from repro.nbody.kernels import get_backend
        from repro.nbody.kernels.settings import set_kernel_backend_override

        get_backend(kernel_backend)  # unknown name -> ConfigurationError now
        set_kernel_backend_override(kernel_backend)
    if trace is not None:
        if trace:
            obs.enable(reset=True)
        else:
            obs.disable()
    return get_default_engine()
