"""Process-wide settings: one table, one resolver, and ``repro.configure``.

Every process-wide knob is one row of :data:`SETTINGS`: how force work
runs (the default execution engine, the force-kernel backend) and how
jobs are served, checked and logged.  A row names the :func:`configure`
keyword, the environment variable, how to parse it, the default and a
check.  :func:`resolve` reads any row with one precedence chain (first
hit wins):

1. the explicit value a caller passes (``JobService(queue_capacity=)``,
   ``connect(token=)``, ``Gateway(addr)``...);
2. the value set through :func:`configure`;
3. the row's environment variable (an empty value counts as unset);
4. the row's default.

The environment is read when a value is resolved, never at import.  A
value from any level passes its row's check, so a bad one raises
:class:`~repro.errors.ConfigurationError` naming the keyword or the
variable.  README.md "Settings" lists every row.

One call configures the whole process::

    import repro

    repro.configure(workers=4, max_retries=3, trace=True)
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.errors import ConfigurationError
from repro.exec.engine import (
    ExecutionEngine,
    get_default_engine,
    set_default_engine,
)
from repro.exec.faults import FaultInjector, RetryPolicy

__all__ = ["SETTINGS", "Setting", "configure", "engine_from_settings", "reset", "resolve"]


@dataclass(frozen=True)
class Setting:
    """One row of the settings table."""

    #: the :func:`configure` keyword and :func:`resolve` name
    name: str
    #: environment variable (``None``: set in code only)
    env: str | None
    default: Any
    #: what is wrong with a value, or ``None`` when it is valid
    check: Callable[[Any], str | None]
    #: turns the environment variable's text into a value
    parse: Callable[[str], Any] = str


def _integer(low: int) -> Callable[[Any], str | None]:
    def check(value: Any) -> str | None:
        if isinstance(value, numbers.Integral) and value >= low:
            return None
        return f"must be an integer >= {low}"

    return check


def _non_negative(value: Any) -> str | None:
    if isinstance(value, numbers.Real) and value >= 0:
        return None
    return "must be a number >= 0"


def _positive(value: Any) -> str | None:
    if isinstance(value, numbers.Real) and value > 0:
        return None
    return "must be a positive number"


def _text(value: Any) -> str | None:
    if isinstance(value, (str, os.PathLike)) and str(value):
        return None
    return "must be a non-empty string"


def _fault_injector(value: Any) -> str | None:
    if isinstance(value, FaultInjector):
        return None
    return "must be a FaultInjector"


def _verify(value: Any) -> str | None:
    from repro.check.invariants import TolerancePolicy

    if isinstance(value, (bool, TolerancePolicy)):
        return None
    return "must be a boolean flag or a TolerancePolicy"


def _kernel_backend(value: Any) -> str | None:
    from repro.nbody.kernels import known_backends

    if value in known_backends():
        return None
    return f"is an unknown kernel backend (registered: {', '.join(known_backends())})"


def _flag(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(text)


#: Every process-wide setting, by :func:`resolve` name.
SETTINGS: dict[str, Setting] = {
    row.name: row
    for row in (
        # The default execution engine (see engine_from_settings).
        Setting("workers", "REPRO_WORKERS", 1, _integer(1), int),
        Setting("max_retries", None, 0, _integer(0)),
        Setting("retry_backoff_s", None, 0.0, _non_negative),
        Setting("deadline_s", None, None, _positive),
        Setting("fault_injector", None, None, _fault_injector),
        # Serving: JobService, Coordinator, Worker, Gateway, connect().
        Setting("max_concurrent_jobs", "REPRO_SERVE_MAX_CONCURRENT_JOBS", 2,
                _integer(1), int),
        Setting("queue_capacity", "REPRO_SERVE_QUEUE_CAPACITY", 64,
                _integer(1), int),
        Setting("cache_dir", "REPRO_SERVE_CACHE_DIR", ".repro_cache", _text),
        Setting("serve_addr", "REPRO_SERVE_ADDR", None, _text),
        Setting("serve_token", "REPRO_SERVE_TOKEN", None, _text),
        Setting("tenant", "REPRO_TENANT", None, _text),
        Setting("gateway_addr", "REPRO_GATEWAY_ADDR", "127.0.0.1:0", _text),
        # Runtime guards for new RunSessions (repro.check.default_guard);
        # check_every and check_energy_tol are set in the environment only.
        Setting("verify", "REPRO_CHECK_ENABLED", False, _verify, _flag),
        Setting("check_every", "REPRO_CHECK_EVERY", 0, _integer(0), int),
        Setting("check_energy_tol", "REPRO_CHECK_ENERGY_TOL", None, _positive,
                float),
        # The run ledger and the force kernels.
        Setting("ledger_dir", "REPRO_LEDGER_DIR", None, _text),
        Setting("kernel_backend", "REPRO_KERNEL_BACKEND", "numpy",
                _kernel_backend),
    )
}

#: Rows the default execution engine is built from.
_ENGINE_ROWS = frozenset(
    ("workers", "max_retries", "retry_backoff_s", "deadline_s", "fault_injector")
)

#: Values set through :func:`configure`, by row name.
_configured: dict[str, Any] = {}


def _checked(row: Setting, value: Any, source: str) -> Any:
    complaint = row.check(value)
    if complaint is not None:
        raise ConfigurationError(f"{source}={value!r} {complaint}")
    return value


def resolve(name: str, explicit: Any = None) -> Any:
    """The value of setting ``name``: ``explicit`` unless it is ``None``,
    else the :func:`configure` value, else the environment variable, else
    the default."""
    row = SETTINGS[name]
    if explicit is not None:
        return _checked(row, explicit, name)
    if name in _configured:
        return _configured[name]
    raw = os.environ.get(row.env, "") if row.env else ""
    if not raw:
        return row.default
    try:
        value = row.parse(raw)
    except ValueError:
        value = raw
    return _checked(row, value, row.env)


def engine_from_settings(values: dict[str, Any] | None = None) -> ExecutionEngine:
    """The default engine the engine rows describe; ``values`` win over
    them."""
    values = values or {}

    def value(name: str) -> Any:
        return resolve(name, values.get(name))

    return ExecutionEngine(
        value("workers"),
        retry=RetryPolicy(
            max_retries=value("max_retries"),
            backoff_s=value("retry_backoff_s"),
            deadline_s=value("deadline_s"),
        ),
        fault_injector=value("fault_injector"),
    )


def reset() -> None:
    """Forget every :func:`configure` value, and close the default engine
    and the shared default ledgers; the next use rebuilds them from the
    table (tests)."""
    _configured.clear()
    dropped = set_default_engine(None)
    if dropped is not None:
        dropped.close()
    for shared in obs.ledger._default_ledgers.values():
        shared.close()
    obs.ledger._default_ledgers.clear()


def configure(
    *,
    workers: int | None = None,
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
    """Set process-wide settings; ``None`` leaves a setting as it is.

    Every keyword but ``trace`` is a row of :data:`SETTINGS` (README.md
    "Settings" gives each one's environment variable and default); a
    value set here beats the environment and loses to an explicit
    argument.  Every value is checked before anything changes, so a
    rejected call changes nothing.

    Parameters
    ----------
    workers:
        The default :class:`~repro.exec.ExecutionEngine` plans dispatch
        through when constructed without ``engine=``.  One worker runs
        serially; more run on a thread pool of that size.
    max_retries, retry_backoff_s, deadline_s:
        Per-task retry policy for the default engine (see
        :class:`~repro.exec.RetryPolicy`).
    fault_injector:
        Deterministic fault source for the default engine (tests/CI only).
    trace:
        ``True`` enables :mod:`repro.obs` (clearing prior data),
        ``False`` disables it.
    max_concurrent_jobs, queue_capacity, cache_dir:
        Defaults for :mod:`repro.serve` services created afterwards.
    serve_addr:
        The coordinator :func:`repro.serve.connect` dials when called
        with no argument (``"host:port"``; unset = in-process).
    serve_token:
        Shared secret a coordinator or :class:`~repro.serve.Gateway`
        requires from every client, and that clients send.
    tenant:
        Tenant label for submissions that name none (see
        :class:`~repro.serve.TenantPolicy`).
    gateway_addr:
        Listen address of :class:`~repro.serve.Gateway`.
    verify:
        Default invariant guarding for :class:`~repro.runtime.RunSession`
        objects (and hence served jobs) created afterwards: ``True``
        guards with the plan's default
        :class:`~repro.check.TolerancePolicy`, a policy pins the
        tolerances, ``False`` turns guarding off even when
        ``REPRO_CHECK_ENABLED`` is set.
    ledger_dir:
        Directory of the durable :class:`~repro.obs.ledger.RunLedger`
        that sessions and services created afterwards append to.
    kernel_backend:
        Force-kernel backend for force passes whose plan does not pin
        one (the ``--kernel-backend`` CLI flag calls this).  Must be a
        registered name (:func:`repro.nbody.kernels.known_backends`); an
        unavailable one degrades to ``numpy`` with a one-time warning.

    Returns the default :class:`~repro.exec.ExecutionEngine` after any
    reconfiguration; engine keywords rebuild it from every engine row,
    so ``configure(max_retries=3)`` keeps a configured worker count.
    """
    # Every parameter is a keyword; collect the ones that were given.
    given = {name: value for name, value in locals().items() if value is not None}
    trace = given.pop("trace", None)
    for name, value in given.items():
        _checked(SETTINGS[name], value, name)
    engine = engine_from_settings(given) if given.keys() & _ENGINE_ROWS else None
    _configured.update(given)
    if engine is not None:
        set_default_engine(engine)
    if trace is not None:
        if trace:
            obs.enable(reset=True)
        else:
            obs.disable()
    return get_default_engine()
