"""Unified submission options for every serve surface.

:class:`SubmitOptions` is one frozen dataclass holding every per-submission
knob (priority, tenant, retry, fault injection, verification), accepted
uniformly by the in-process service, the socket client, the HTTP gateway,
and the CLI::

    from repro.serve import SubmitOptions, connect

    client = connect()
    handle = client.submit(spec, options=SubmitOptions(priority=5, tenant="ops"))

Wire shape
----------
Only the JSON-safe subset — ``priority`` and ``tenant`` — crosses process
boundaries (socket protocol, HTTP gateway, ``--jobs`` batch files).
``retry`` / ``fault_injector`` / ``verify`` hold live Python objects and are
in-process-only; :meth:`SubmitOptions.to_wire` raises
:class:`~repro.errors.ServeError` when they are set, which is the same
contract the remote client enforced before this class existed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import ServeError

__all__ = ["SubmitOptions"]

#: Fields that may cross a process boundary (socket / HTTP / batch JSON).
WIRE_FIELDS = ("priority", "tenant")


@dataclass(frozen=True)
class SubmitOptions:
    """Per-submission tuning, uniform across all serve surfaces.

    ``priority`` — higher pops first within a tenant (FIFO on ties).
    ``tenant`` — fair-scheduling and quota bucket; ``None`` falls back to
    the service's default tenant (settings chain: ``configure(tenant=)``
    > ``REPRO_TENANT`` > ``"default"``).
    ``retry`` — per-job :class:`~repro.exec.RetryPolicy` (in-process only).
    ``fault_injector`` — per-job :class:`~repro.exec.FaultInjector`
    (in-process only, testing).
    ``verify`` — per-job invariant-guard override (in-process only;
    ``None`` inherits the service default).
    """

    priority: int = 0
    tenant: str | None = None
    retry: Any | None = None
    fault_injector: Any | None = None
    verify: Any | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ServeError(
                f"SubmitOptions.priority must be an int, got {self.priority!r}"
            )
        if self.tenant is not None and (
            not isinstance(self.tenant, str) or not self.tenant
        ):
            raise ServeError(
                f"SubmitOptions.tenant must be a non-empty string, got {self.tenant!r}"
            )

    # -- wire form -----------------------------------------------------
    def wire_safe(self) -> bool:
        """True when no in-process-only field is set."""
        return self.retry is None and self.fault_injector is None and self.verify is None

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict of the fields that may cross a process boundary.

        Raises :class:`ServeError` if an in-process-only field (``retry``,
        ``fault_injector``, ``verify``) is set — those cannot be shipped
        to a coordinator or gateway.
        """
        if not self.wire_safe():
            offending = [
                name
                for name in ("retry", "fault_injector", "verify")
                if getattr(self, name) is not None
            ]
            raise ServeError(
                "SubmitOptions fields "
                + ", ".join(offending)
                + " are in-process only and cannot cross the wire; "
                "configure them on the worker's service instead"
            )
        out: dict[str, Any] = {}
        if self.priority != 0:
            out["priority"] = self.priority
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any] | None) -> "SubmitOptions":
        """Rebuild from :meth:`to_wire` output; rejects unknown keys."""
        if payload is None:
            return cls()
        unknown = set(payload) - set(WIRE_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown SubmitOptions wire fields: {sorted(unknown)} "
                f"(supported: {list(WIRE_FIELDS)})"
            )
        return cls(**dict(payload))

    def with_defaults(self, *, tenant: str | None = None) -> "SubmitOptions":
        """Fill unset fields from service-level defaults (currently tenant)."""
        if self.tenant is None and tenant is not None:
            return replace(self, tenant=tenant)
        return self
