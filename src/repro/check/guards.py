"""Runtime guards: invariant evaluation wired into live runs.

A :class:`RunGuard` turns the invariant engine into something a
:class:`~repro.runtime.RunSession` or the serve scheduler can carry
along: primed once against the run's initial state, then re-evaluated at
every checkpoint (and, under the serve layer, after every scheduler
slice).  A violation raises :class:`~repro.errors.VerificationError` —
the session stops *before* persisting the bad state as a checkpoint, and
a served job fails its handle instead of silently returning bad physics.

Every evaluation runs inside a ``check.invariants`` obs span and bumps
``check.evaluations_total``; failures bump ``check.failures_total``.

Guards are opt-in per session/job, or on by default via
``repro.configure(verify=True)`` / ``REPRO_CHECK_ENABLED=1``
(:func:`default_guard`; the settings live in :mod:`repro.config`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro import obs
from repro.check.invariants import (
    InvariantBaseline,
    InvariantEngine,
    InvariantReport,
    TolerancePolicy,
    policy_for,
)
from repro.config import resolve
from repro.errors import ConfigurationError, StateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulation import Simulation

__all__ = ["RunGuard", "default_guard"]


class RunGuard:
    """Invariant watchdog for one run.

    Parameters
    ----------
    policy:
        Tolerances; ``None`` picks the plan's default
        (:func:`~repro.check.invariants.policy_for`) when primed.
    every:
        Extra step cadence between evaluations, *on top of* the
        checkpoint-time evaluations a session always performs for a
        guarded run.  ``0`` evaluates only at checkpoints/slices.
    energy_tol:
        Replaces the energy bound of the policy :meth:`prime` resolves:
        ``energy_drift_per_sync`` on a block-timestep policy,
        ``energy_drift`` on the others (``REPRO_CHECK_ENERGY_TOL``).

    One guard belongs to one run: priming captures the baseline the
    drift checks compare against, so reusing a guard across runs would
    measure drift from the wrong origin.  :meth:`prime` is idempotent
    for the *same* simulation (the resume path re-primes only if the
    baseline is missing).
    """

    def __init__(
        self,
        *,
        policy: TolerancePolicy | None = None,
        every: int = 0,
        energy_tol: float | None = None,
    ) -> None:
        if every < 0:
            raise ConfigurationError(f"every must be >= 0, got {every}")
        self.policy = policy
        self.every = every
        self.energy_tol = energy_tol
        self._engine: InvariantEngine | None = None
        self.baseline: InvariantBaseline | None = None
        #: evaluations performed / failed (observability)
        self.evaluations = 0
        self.failures = 0
        self.last_report: InvariantReport | None = None
        self._last_checked_step = -1

    # ------------------------------------------------------------------
    @property
    def primed(self) -> bool:
        return self.baseline is not None

    def prime(self, sim: "Simulation") -> InvariantBaseline:
        """Capture the baseline; resolves the plan-default policy."""
        if self.policy is None:
            self.policy = policy_for(sim.plan.name)
        if self.energy_tol is not None:
            bound = (
                "energy_drift"
                if self.policy.energy_drift_per_sync is None
                else "energy_drift_per_sync"
            )
            self.policy = dataclasses.replace(
                self.policy, **{bound: self.energy_tol}
            )
        self._engine = InvariantEngine(
            self.policy,
            softening=sim.plan.config.softening,
            G=sim.plan.config.G,
        )
        self.baseline = self._engine.baseline(
            sim.particles, step=sim.record.steps
        )
        obs.instant(
            "check.baseline",
            step=sim.record.steps,
            plan=sim.plan.name,
            policy=self.policy.name,
        )
        return self.baseline

    # ------------------------------------------------------------------
    def check(self, sim: "Simulation", *, where: str = "checkpoint") -> InvariantReport:
        """Evaluate every invariant now; raise on violation.

        ``where`` labels the evaluation site in spans and error messages
        (``"checkpoint"``, ``"slice"``, ``"final"``...).
        """
        if self._engine is None or self.baseline is None:
            raise StateError("guard.check() before prime(): no baseline yet")
        step = sim.record.steps
        with obs.span(
            "check.invariants",
            step=step,
            where=where,
            plan=sim.plan.name,
            policy=self.policy.name if self.policy else "?",
        ):
            blockstep = bool(getattr(sim, "blockstep", False))
            report = self._engine.evaluate(
                sim.particles,
                self.baseline,
                step=step,
                accelerations=sim.last_acceleration,
                syncs=sim.sync_intervals if blockstep else None,
                rungs=sim.rungs if blockstep else None,
                synchronized=getattr(sim, "synchronized", True),
            )
        self.evaluations += 1
        self.last_report = report
        self._last_checked_step = step
        obs.inc("check.evaluations_total")
        if not report.ok:
            self.failures += 1
            obs.inc("check.failures_total")
            obs.instant(
                "check.violation",
                step=step,
                where=where,
                failures=[r.name for r in report.failures],
            )
        report.raise_if_failed(context=f"{where}, plan {sim.plan.name}")
        return report

    def maybe_check(self, sim: "Simulation", *, where: str = "step") -> InvariantReport | None:
        """Evaluate if the ``every`` cadence is due at the current step."""
        if self.every <= 0:
            return None
        step = sim.record.steps
        if step % self.every != 0 or step == self._last_checked_step:
            return None
        return self.check(sim, where=where)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        policy = self.policy.name if self.policy is not None else None
        return (
            f"RunGuard(policy={policy!r}, every={self.every}, "
            f"evaluations={self.evaluations}, failures={self.failures})"
        )


def default_guard() -> RunGuard | None:
    """The guard a fresh session gets when none was passed explicitly.

    ``None`` unless the ``verify`` setting is on.  A
    :class:`TolerancePolicy` given to ``repro.configure(verify=...)``
    becomes the guard's policy; ``verify=True`` leaves the choice to the
    plan default at prime time.  ``REPRO_CHECK_EVERY`` sets the step
    cadence and ``REPRO_CHECK_ENERGY_TOL`` the energy bound.
    """
    verify = resolve("verify")
    if verify is False:
        return None
    return RunGuard(
        policy=verify if isinstance(verify, TolerancePolicy) else None,
        every=resolve("check_every"),
        energy_tol=resolve("check_energy_tol"),
    )
