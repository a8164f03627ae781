"""Serve-layer settings: defaults, environment variables, overrides.

Seven knobs govern the job service, resolved with one documented
precedence chain (first hit wins):

1. explicit keyword arguments to :func:`repro.serve.connect` (or the
   :class:`~repro.serve.JobService` constructor);
2. values set through :func:`repro.configure` (``max_concurrent_jobs=``,
   ``queue_capacity=``, ``cache_dir=``, ``serve_addr=``,
   ``serve_token=``, ``tenant=``, ``gateway_addr=``);
3. the ``REPRO_SERVE_MAX_CONCURRENT_JOBS`` /
   ``REPRO_SERVE_QUEUE_CAPACITY`` / ``REPRO_SERVE_CACHE_DIR`` /
   ``REPRO_SERVE_ADDR`` / ``REPRO_SERVE_TOKEN`` / ``REPRO_TENANT`` /
   ``REPRO_GATEWAY_ADDR`` environment variables;
4. the built-in defaults on :class:`ServeSettings`.

``addr`` is the distributed-tier switch: ``None`` (the default) means
in-process serving, a ``"host:port"`` string points ``connect()`` and
``repro-nbody serve submit`` at a running coordinator.  ``token`` is the
optional shared secret both the socket protocol and the HTTP gateway
check; ``tenant`` is the default fair-scheduling bucket submissions fall
into when a :class:`~repro.serve.SubmitOptions` names none;
``gateway_addr`` is where ``repro-nbody serve gateway`` listens.

Environment variables are read when settings are resolved (service
construction), not at import, so tests and subprocesses can adjust them
freely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = [
    "ServeSettings",
    "current_settings",
    "set_overrides",
    "clear_overrides",
]

#: Environment variable names, in ServeSettings field order.
ENV_MAX_CONCURRENT_JOBS = "REPRO_SERVE_MAX_CONCURRENT_JOBS"
ENV_QUEUE_CAPACITY = "REPRO_SERVE_QUEUE_CAPACITY"
ENV_CACHE_DIR = "REPRO_SERVE_CACHE_DIR"
ENV_ADDR = "REPRO_SERVE_ADDR"
ENV_TOKEN = "REPRO_SERVE_TOKEN"
ENV_TENANT = "REPRO_TENANT"
ENV_GATEWAY_ADDR = "REPRO_GATEWAY_ADDR"


@dataclass(frozen=True)
class ServeSettings:
    """Resolved serve-layer configuration.

    ``max_concurrent_jobs`` bounds how many sessions the scheduler keeps
    live at once (and, by default, its runner-thread count);
    ``queue_capacity`` bounds queued-but-not-live submissions before
    :class:`~repro.errors.AdmissionError` backpressure kicks in;
    ``cache_dir`` roots the content-addressed result cache; ``addr`` is
    the default coordinator address for :func:`repro.serve.connect`
    (``None`` = in-process).
    """

    max_concurrent_jobs: int = 2
    queue_capacity: int = 64
    cache_dir: str = ".repro_cache"
    addr: str | None = None
    token: str | None = None
    tenant: str | None = None
    gateway_addr: str | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent_jobs < 1:
            raise ConfigurationError(
                f"max_concurrent_jobs must be >= 1, got {self.max_concurrent_jobs}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if not str(self.cache_dir):
            raise ConfigurationError("cache_dir must be a non-empty path")
        if self.tenant is not None and not self.tenant:
            raise ConfigurationError("tenant must be a non-empty string")


#: Values installed by ``repro.configure`` (precedence level 2).
_overrides: dict[str, object] = {}


def set_overrides(
    *,
    max_concurrent_jobs: int | None = None,
    queue_capacity: int | None = None,
    cache_dir: str | None = None,
    addr: str | None = None,
    token: str | None = None,
    tenant: str | None = None,
    gateway_addr: str | None = None,
) -> None:
    """Install ``repro.configure``-level overrides (``None`` = leave as-is)."""
    pairs = {
        "max_concurrent_jobs": max_concurrent_jobs,
        "queue_capacity": queue_capacity,
        "cache_dir": cache_dir,
        "addr": addr,
        "token": token,
        "tenant": tenant,
        "gateway_addr": gateway_addr,
    }
    staged = dict(_overrides)
    staged.update({k: v for k, v in pairs.items() if v is not None})
    # Validate before committing so a bad configure() leaves state intact.
    replace(ServeSettings(), **staged)  # type: ignore[arg-type]
    _overrides.update(staged)


def clear_overrides() -> None:
    """Drop all ``repro.configure``-level serve overrides (tests)."""
    _overrides.clear()


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def current_settings(
    *,
    max_concurrent_jobs: int | None = None,
    queue_capacity: int | None = None,
    cache_dir: str | None = None,
    addr: str | None = None,
    token: str | None = None,
    tenant: str | None = None,
    gateway_addr: str | None = None,
) -> ServeSettings:
    """Resolve settings: explicit args > configure() > env > defaults."""
    values: dict[str, object] = {}
    env_pairs = {
        "max_concurrent_jobs": _env_int(ENV_MAX_CONCURRENT_JOBS),
        "queue_capacity": _env_int(ENV_QUEUE_CAPACITY),
        "cache_dir": os.environ.get(ENV_CACHE_DIR) or None,
        "addr": os.environ.get(ENV_ADDR) or None,
        "token": os.environ.get(ENV_TOKEN) or None,
        "tenant": os.environ.get(ENV_TENANT) or None,
        "gateway_addr": os.environ.get(ENV_GATEWAY_ADDR) or None,
    }
    values.update({k: v for k, v in env_pairs.items() if v is not None})
    values.update(_overrides)
    explicit = {
        "max_concurrent_jobs": max_concurrent_jobs,
        "queue_capacity": queue_capacity,
        "cache_dir": cache_dir,
        "addr": addr,
        "token": token,
        "tenant": tenant,
        "gateway_addr": gateway_addr,
    }
    values.update({k: v for k, v in explicit.items() if v is not None})
    return replace(ServeSettings(), **values)  # type: ignore[arg-type]
