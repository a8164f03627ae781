"""Multi-tenant fair scheduling: policies, quotas, and the fair queue.

The serve tier's answer to "millions of users, heavy traffic": submissions
carry a *tenant* label, and :class:`FairJobQueue` schedules them with
weighted fair scheduling across tenants so one tenant's bulk sweep can
never starve another tenant's interactive probe.

Three mechanisms compose:

**Stride scheduling across tenants.**  Each tenant accrues virtual time
(``pass``) as its jobs pop: ``pass += STRIDE_BASE / weight``.  The tenant
with the smallest pass value pops next, so a weight-4 tenant gets ~4x the
pop share of a weight-1 tenant under contention — and an idle tenant's
first job after a quiet spell starts at the current global virtual time
(not its stale pass), so it is scheduled promptly without earning
catch-up credit for time it wasn't queued.

**Priority aging within a tenant.**  Inside a tenant, higher ``priority``
pops first (FIFO on ties), but a queued entry gains +1 effective priority
every ``aging_every`` *pops* (not wall-clock — pop count is deterministic
for a fixed submission sequence), capped at ``age_max_boost``.  A
long-queued bulk job therefore eventually ties an interactive priority
and runs (FIFO breaks the tie in its favor once), but the cap means it
can never permanently outrank fresh interactive work.

**Quotas.**  ``TenantPolicy.max_queued`` bounds a tenant's queue
residency; breaching it raises :class:`~repro.errors.QuotaError` (a
subclass of :class:`~repro.errors.AdmissionError`, so existing
backpressure handling — CLI exit 3, gateway 429 — applies unchanged).
Global ``capacity`` still raises plain ``AdmissionError``.
``max_inflight`` is enforced by :class:`~repro.serve.JobService`
(admitted-but-unfinished jobs), not here — the queue only sees the
queued leg.

All decisions depend only on the submission/pop sequence, never the
clock, preserving the repo-wide determinism gate.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import AdmissionError, QuotaError, ServeError

__all__ = ["TenantPolicy", "FairJobQueue", "DEFAULT_TENANT"]

#: Tenant bucket used when a submission names none.
DEFAULT_TENANT = "default"

#: Stride numerator; pass += STRIDE_BASE / weight per pop.  Large so
#: integer-ish weights produce well-separated float strides.
STRIDE_BASE = 1 << 16


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant scheduling weight and admission quotas.

    ``weight`` — share of pops under contention, relative to other
    tenants (weight 4 vs 1 → ~4:1 pop ratio).  ``max_queued`` /
    ``max_inflight`` — ``None`` means unbounded.
    """

    weight: float = 1.0
    max_queued: int | None = None
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if not (self.weight > 0):
            raise ServeError(f"tenant weight must be > 0, got {self.weight}")
        for name in ("max_queued", "max_inflight"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServeError(f"tenant {name} must be >= 1, got {value}")


def coerce_policies(
    tenants: Mapping[str, TenantPolicy | Mapping[str, Any]] | None,
) -> dict[str, TenantPolicy]:
    """Normalize a ``{tenant: policy-or-dict}`` mapping (CLI/JSON friendly)."""
    out: dict[str, TenantPolicy] = {}
    for name, policy in (tenants or {}).items():
        if isinstance(policy, TenantPolicy):
            out[name] = policy
        elif isinstance(policy, Mapping):
            try:
                out[name] = TenantPolicy(**dict(policy))
            except TypeError as exc:
                raise ServeError(f"bad policy for tenant {name!r}: {exc}") from None
        else:
            raise ServeError(
                f"tenant policy for {name!r} must be a TenantPolicy or mapping, "
                f"got {type(policy).__name__}"
            )
    return out


class _Entry:
    """One queued item with the bookkeeping aging needs."""

    __slots__ = ("priority", "seq", "enq_tick", "tenant", "item")

    def __init__(self, priority: int, seq: int, enq_tick: int, tenant: str, item: Any):
        self.priority = priority
        self.seq = seq
        self.enq_tick = enq_tick
        self.tenant = tenant
        self.item = item


class FairJobQueue:
    """Bounded multi-tenant queue: weighted fair across tenants, aged
    priority within one.

    Admission is reject-not-block: :meth:`push` raises rather than waits
    when the queue is full, so a submitting client always gets an
    immediate answer.  With a single tenant and no aging pressure the
    order is strict priority, FIFO within a priority level.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        tenants: Mapping[str, TenantPolicy | Mapping[str, Any]] | None = None,
        default_policy: TenantPolicy | None = None,
        aging_every: int = 8,
        age_max_boost: int = 8,
    ) -> None:
        if capacity < 1:
            raise ServeError(f"queue capacity must be >= 1, got {capacity}")
        if aging_every < 1:
            raise ServeError(f"aging_every must be >= 1, got {aging_every}")
        if age_max_boost < 0:
            raise ServeError(f"age_max_boost must be >= 0, got {age_max_boost}")
        self.capacity = capacity
        self.aging_every = aging_every
        self.age_max_boost = age_max_boost
        self._policies = coerce_policies(tenants)
        self._default_policy = default_policy or TenantPolicy()
        self._pending: dict[str, list[_Entry]] = {}
        self._pass: dict[str, float] = {}
        self._vtime = 0.0
        self._tick = 0  # pops so far; the deterministic clock for aging
        self._size = 0
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False
        #: total accepted / rejected submissions (observability)
        self.accepted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, self._default_policy)

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        with self._lock:
            self._policies[tenant] = policy

    @property
    def policies(self) -> dict[str, TenantPolicy]:
        return dict(self._policies)

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def depth_by_tenant(self) -> dict[str, int]:
        with self._lock:
            return {t: len(q) for t, q in self._pending.items() if q}

    # ------------------------------------------------------------------
    def push(
        self,
        item: Any,
        *,
        priority: int = 0,
        tenant: str = DEFAULT_TENANT,
        force: bool = False,
    ) -> None:
        """Enqueue ``item`` under ``tenant``.

        Raises :class:`QuotaError` when the tenant's ``max_queued`` is
        reached, :class:`AdmissionError` at global capacity, and
        :class:`ServeError` after :meth:`close`.  ``force=True`` skips
        the capacity and quota checks — the coordinator's requeue path
        uses it so a lost worker's claims are never shed on their way
        back into the queue.
        """
        with self._nonempty:
            if self._closed:
                raise ServeError("queue is closed")
            policy = self.policy_for(tenant)
            bucket = self._pending.get(tenant)
            depth = len(bucket) if bucket is not None else 0
            if not force:
                if policy.max_queued is not None and depth >= policy.max_queued:
                    self.rejected += 1
                    raise QuotaError(
                        f"tenant {tenant!r} at max_queued ({policy.max_queued} "
                        "pending jobs); retry after the scheduler drains",
                        tenant=tenant,
                    )
                if self._size >= self.capacity:
                    self.rejected += 1
                    raise AdmissionError(
                        f"queue is full ({self.capacity} pending jobs); "
                        "retry after the scheduler drains or raise "
                        "queue_capacity"
                    )
            if bucket is None:
                bucket = self._pending[tenant] = []
            if not bucket:
                # Empty -> nonempty: start at current virtual time so an
                # idle tenant neither banks credit nor owes debt.
                self._pass[tenant] = max(self._pass.get(tenant, 0.0), self._vtime)
            bucket.append(
                _Entry(priority, next(self._seq), self._tick, tenant, item)
            )
            self._size += 1
            self.accepted += 1
            self._nonempty.notify()

    # ------------------------------------------------------------------
    def _effective_priority(self, entry: _Entry) -> int:
        boost = (self._tick - entry.enq_tick) // self.aging_every
        return entry.priority + min(self.age_max_boost, boost)

    def _select_locked(self) -> _Entry:
        """Pick and remove the next entry (caller holds the lock, size > 0)."""
        # Stride step 1: tenant with the smallest pass value wins; ties
        # break on tenant name for determinism.
        tenant = min(
            (t for t, q in self._pending.items() if q),
            key=lambda t: (self._pass.get(t, 0.0), t),
        )
        self._vtime = self._pass.get(tenant, 0.0)
        policy = self.policy_for(tenant)
        self._pass[tenant] = self._vtime + STRIDE_BASE / policy.weight
        # Step 2: within the tenant, max aged priority, FIFO on ties.
        bucket = self._pending[tenant]
        best = max(bucket, key=lambda e: (self._effective_priority(e), -e.seq))
        bucket.remove(best)
        self._size -= 1
        self._tick += 1
        return best

    def pop(self, timeout: float | None = None) -> Any | None:
        """Dequeue per the fair policy, blocking up to ``timeout``.

        Returns ``None`` on timeout or when the queue is closed and empty.
        """
        entry = self.pop_entry(timeout)
        return None if entry is None else entry.item

    def pop_entry(self, timeout: float | None = None) -> _Entry | None:
        """Like :meth:`pop` but returns the entry (exposes ``tenant``)."""
        with self._nonempty:
            while not self._size:
                if self._closed:
                    return None
                if not self._nonempty.wait(timeout=timeout):
                    return None
            return self._select_locked()

    def pop_nowait(self) -> _Entry | None:
        """Non-blocking :meth:`pop_entry`; ``None`` when empty."""
        with self._lock:
            if not self._size:
                return None
            return self._select_locked()

    # ------------------------------------------------------------------
    def remove(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return every queued item matching ``predicate``.

        The cancellation seam: a queued job can be plucked out without
        disturbing the fair-scheduling state of its neighbors.
        """
        removed: list[Any] = []
        with self._lock:
            for tenant, bucket in self._pending.items():
                keep: list[_Entry] = []
                for entry in bucket:
                    if predicate(entry.item):
                        removed.append(entry.item)
                        self._size -= 1
                    else:
                        keep.append(entry)
                self._pending[tenant] = keep
        return removed

    def items(self) -> Iterable[Any]:
        """Snapshot of queued items (diagnostics; no scheduling effect)."""
        with self._lock:
            return [e.item for bucket in self._pending.values() for e in bucket]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further pushes and wake every blocked :meth:`pop`."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FairJobQueue(pending={self._size}, capacity={self.capacity}, "
            f"tenants={sorted(self._policies)}, closed={self._closed})"
        )
