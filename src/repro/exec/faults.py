"""Retry policy and deterministic fault injection for the execution engine.

Fault tolerance is only trustworthy if its recovery paths are exercised;
production N-body campaigns (Bonsai-style multi-day runs) treat worker
failures as routine, not exceptional.  This module provides the two
pieces the engine needs:

* :class:`RetryPolicy` — how many times a failed task is retried, with
  what backoff, and how long a whole dispatch may take;
* :class:`FaultInjector` — a *deterministic* fault source the tests and
  CI inject into an :class:`~repro.exec.ExecutionEngine` to prove the
  retry and checkpoint-resume paths work.

Determinism is the design constraint: every injected decision is a pure
function of ``(seed, task index, attempt)``, so the same faults fire for
any worker count, on every run.  A stateful injector would drift between
the serial reference and a thread pool and the bit-equality guarantees
could not be tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "RetryPolicy",
    "FaultInjector",
    "InjectedFault",
]


class InjectedFault(ReproError):
    """A task failure injected by a :class:`FaultInjector` (retryable)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry with exponential backoff and a dispatch deadline.

    ``max_retries`` counts *additional* attempts after the first failure;
    ``backoff_s * backoff_factor**attempt`` is slept before retry
    ``attempt + 1``; ``deadline_s`` bounds one whole ``map`` dispatch —
    once exceeded, no further retries are attempted and the engine raises
    :class:`~repro.errors.ExecutionError` if results are still pending.
    """

    max_retries: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0.0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before retrying after failed attempt ``attempt``."""
        return self.backoff_s * self.backoff_factor**attempt


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic fault source for engine tests and chaos CI jobs.

    Task faults fire for explicit ``fail_tasks`` indices and/or a seeded
    pseudo-random ``task_failure_rate``; either way a given task fails
    only on its first ``fail_attempts`` attempts, so a retrying engine is
    guaranteed to converge.  Instances are immutable, so pool threads
    share one injector without locking.
    """

    seed: int = 0
    task_failure_rate: float = 0.0
    fail_attempts: int = 1
    fail_tasks: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fail_tasks", frozenset(self.fail_tasks))
        if not 0.0 <= self.task_failure_rate <= 1.0:
            raise ConfigurationError(
                f"task_failure_rate must be in [0, 1], got {self.task_failure_rate}"
            )
        if self.fail_attempts < 0:
            raise ConfigurationError(
                f"fail_attempts must be >= 0, got {self.fail_attempts}"
            )

    # ------------------------------------------------------------------
    def task_fault(self, task: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` of task ``task`` should fail."""
        if attempt >= self.fail_attempts:
            return False
        if task in self.fail_tasks:
            return True
        if self.task_failure_rate > 0.0:
            draw = random.Random(
                self.seed * 1_000_003 + task * 8_191 + attempt
            ).random()
            return draw < self.task_failure_rate
        return False

    # ------------------------------------------------------------------
    def maybe_fail_task(self, task: int, attempt: int) -> None:
        """Raise :class:`InjectedFault` when the task fault fires."""
        if self.task_fault(task, attempt):
            raise InjectedFault(
                f"injected fault: task {task}, attempt {attempt}"
            )
