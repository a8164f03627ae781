"""High-level simulation driver: plan x device x integrator.

:class:`Simulation` is the library's front door: pick a workload, a plan
and a time step, then :meth:`~Simulation.run`.  Forces are computed through
the plan's simulated device kernels (real float32 arithmetic) while a
*simulated wall clock* accumulates what the run would have cost on the
modelled hardware — so a laptop-scale run reports both physics and the
paper's timing quantities.

When :mod:`repro.obs` tracing is enabled, every step emits a wall-clock
``step`` span (with a ``force_pass`` child) plus ``kernel`` / ``host`` /
``transfer`` intervals on the simulated timeline, and feeds the
``interactions_total`` counter and ``step_seconds`` / ``kernel_seconds``
histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core.plans.base import Plan, PlanConfig, StepBreakdown
from repro.core.plans.registry import resolve_plan
from repro.errors import ConfigurationError, StateError
from repro.nbody.integrators import block_substep
from repro.nbody.particles import ParticleSet

__all__ = ["Simulation", "SimulationRecord"]


@dataclass
class SimulationRecord:
    """Accumulated accounting of a simulation run.

    ``steps`` counts *leapfrog steps*; ``force_passes`` counts force
    evaluations.  The two differ by one: the first step bootstraps the
    kick-drift-kick cache with an extra force pass, every later step
    performs exactly one.  (They used to be conflated — the record
    counted force passes as steps, so ``mean_step_seconds`` was wrong
    for short runs.)
    """

    steps: int = 0
    force_passes: int = 0
    simulated_seconds: float = 0.0
    kernel_seconds: float = 0.0
    host_seconds: float = 0.0
    transfer_seconds: float = 0.0
    interactions: int = 0
    #: The latest force pass's breakdown (``None`` before the first pass);
    #: earlier passes live on only in the running totals, so a record's
    #: size does not grow with the run.
    last_breakdown: StepBreakdown | None = None

    def add(self, b: StepBreakdown) -> None:
        """Fold one *force pass's* breakdown into the record."""
        self.force_passes += 1
        self.simulated_seconds += b.total_seconds
        self.kernel_seconds += b.kernel_seconds
        self.host_seconds += b.host_seconds
        self.transfer_seconds += b.transfer_seconds
        self.interactions += b.interactions
        self.last_breakdown = b

    def add_step(self) -> None:
        """Count one completed leapfrog step."""
        self.steps += 1

    def to_dict(self) -> dict:
        """JSON-friendly totals (checkpoint manifests; drops the last breakdown).

        Python's ``json`` round-trips floats bit-exactly (``repr`` based),
        so a record restored via :meth:`from_dict` continues accumulating
        from the exact values it was saved with.
        """
        return {
            "steps": self.steps,
            "force_passes": self.force_passes,
            "simulated_seconds": self.simulated_seconds,
            "kernel_seconds": self.kernel_seconds,
            "host_seconds": self.host_seconds,
            "transfer_seconds": self.transfer_seconds,
            "interactions": self.interactions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationRecord":
        """Rebuild a record from :meth:`to_dict` output.

        ``last_breakdown`` is in-memory only; a restored record starts
        without one and keeps exact running totals.
        """
        return cls(
            steps=int(data["steps"]),
            force_passes=int(data["force_passes"]),
            simulated_seconds=float(data["simulated_seconds"]),
            kernel_seconds=float(data["kernel_seconds"]),
            host_seconds=float(data["host_seconds"]),
            transfer_seconds=float(data["transfer_seconds"]),
            interactions=int(data["interactions"]),
        )

    @property
    def mean_step_seconds(self) -> float:
        """Average simulated time per leapfrog step.

        Includes the bootstrap force pass in the numerator (it is real
        simulated work) but divides by *steps*, not force passes.
        Raises :class:`~repro.errors.StateError` if no step has been
        recorded yet.
        """
        if self.steps == 0:
            raise StateError("no steps recorded")
        return self.simulated_seconds / self.steps


class Simulation:
    """Advance a :class:`ParticleSet` under a PTPM plan.

    ``plan`` is a :class:`Plan` instance or a registered plan name
    (``"i"``, ``"j"``, ``"w"``, ``"jw"``, or anything added through
    :func:`repro.register`); a name is resolved with
    ``plan_config`` (default :class:`PlanConfig`).  Everything after
    ``plan`` is keyword-only.

    The integrator is a kick-drift-kick leapfrog; each step performs two
    half-kicks but only one *new* force evaluation (the trailing
    acceleration is cached), matching the paper's one-force-pass-per-step
    accounting.
    """

    def __init__(
        self,
        particles: ParticleSet,
        plan: Plan | str,
        *,
        dt: float = 1e-3,
        plan_config: PlanConfig | None = None,
    ) -> None:
        if not (math.isfinite(dt) and dt > 0.0):
            raise ConfigurationError(f"dt must be finite and positive, got {dt}")
        self.particles = particles
        self.plan = resolve_plan(plan, plan_config)
        self.dt = dt
        self.time = 0.0
        self.record = SimulationRecord()
        self._last_acc: np.ndarray | None = None
        #: block-timestep state (rung-driven plans only)
        self._blockstep = bool(getattr(self.plan, "blockstep", False))
        self._schedule = self.plan.make_schedule(dt) if self._blockstep else None
        self._rungs: np.ndarray | None = None
        self._substep = 0

    def _force(self) -> tuple[np.ndarray, StepBreakdown]:
        with obs.span("force_pass", plan=self.plan.name, n=len(self.particles)):
            return self.plan.compute_step(
                self.particles.positions, self.particles.masses
            )

    def _account(self, b: StepBreakdown) -> None:
        """Fold a breakdown into the record and the observability stream."""
        self.record.add(b)
        if obs.enabled:
            t0 = obs.sim_now()
            obs.sim_span("kernel", t0, t0 + b.kernel_seconds, track="device", plan=b.plan)
            obs.sim_span("host", t0, t0 + b.host_seconds, track="host", plan=b.plan)
            obs.sim_span(
                "transfer", t0, t0 + b.transfer_seconds, track="pcie", plan=b.plan
            )
            obs.advance_sim(b.total_seconds)
            obs.inc("interactions_total", b.interactions)
            obs.inc("issued_interactions_total", b.issued_interactions)
            obs.observe("step_seconds", b.total_seconds)
            obs.observe("kernel_seconds", b.kernel_seconds)
            obs.set_gauge("gflops", b.kernel_gflops())

    @property
    def last_acceleration(self) -> np.ndarray | None:
        """The cached trailing acceleration (``None`` before the first step).

        Together with ``particles``, ``time`` and ``record`` this is the
        complete integrator state — :mod:`repro.runtime` persists it so a
        resumed run replays the exact kick-drift-kick sequence without an
        extra bootstrap force pass.
        """
        return self._last_acc

    def seed_forces(self, acc: np.ndarray) -> None:
        """Restore a previously cached trailing acceleration.

        The inverse of reading :attr:`last_acceleration`; used when
        rebuilding a simulation from a checkpoint.  ``acc`` must match
        the particle array shape.
        """
        acc = np.ascontiguousarray(acc, dtype=np.float64)
        if acc.shape != self.particles.positions.shape:
            raise ConfigurationError(
                f"acceleration shape {acc.shape} does not match particles "
                f"{self.particles.positions.shape}"
            )
        self._last_acc = acc

    def invalidate_forces(self) -> None:
        """Drop the cached trailing acceleration (and any rung state).

        Call after mutating :attr:`particles` externally (positions,
        masses, or the set itself) — the next :meth:`step` then performs a
        fresh bootstrap force pass (block mode: at a sync point, with
        fresh rung assignment) instead of reusing a stale cache.
        """
        self._last_acc = None
        self._rungs = None
        self._substep = 0

    # -- block-timestep state ------------------------------------------------
    @property
    def blockstep(self) -> bool:
        """Whether the plan drives hierarchical block timesteps."""
        return self._blockstep

    @property
    def block_schedule(self):
        """The :class:`~repro.nbody.timestep.BlockTimestepSchedule` (or None)."""
        return self._schedule

    @property
    def rungs(self) -> np.ndarray | None:
        """Current per-body rung assignment (``None`` before bootstrap)."""
        return self._rungs

    @property
    def substep(self) -> int:
        """Position within the current sync interval (0 = synchronised)."""
        return self._substep

    @property
    def synchronized(self) -> bool:
        """Whether every body's step boundary coincides right now.

        Fixed-step runs are always synchronised; a block run is only at
        sync points (``substep == 0``), where global invariants (energy,
        momentum drift) are well defined.
        """
        return (not self._blockstep) or self._substep == 0

    @property
    def sync_intervals(self) -> int:
        """Completed sync intervals (block mode) or steps (fixed dt)."""
        if not self._blockstep:
            return self.record.steps
        return self.record.steps // self._schedule.n_substeps

    def seed_rungs(self, rungs: np.ndarray, substep: int = 0) -> None:
        """Restore block-timestep state (the inverse of :attr:`rungs`).

        Used with :meth:`seed_forces` when rebuilding a block-timestep
        simulation from a checkpoint, so a mid-rung resume replays the
        exact substep sequence without a bootstrap pass.
        """
        if not self._blockstep:
            raise StateError("seed_rungs() requires a block-timestep plan")
        rungs = np.ascontiguousarray(rungs, dtype=np.int64)
        if rungs.shape != (len(self.particles),):
            raise ConfigurationError(
                f"rungs shape {rungs.shape} does not match particle count "
                f"{len(self.particles)}"
            )
        sched = self._schedule
        if rungs.size and (rungs.min() < 0 or rungs.max() >= sched.n_rungs):
            raise ConfigurationError(
                f"rungs must lie in [0, {sched.n_rungs}), got "
                f"[{rungs.min()}, {rungs.max()}]"
            )
        if not 0 <= substep < sched.n_substeps:
            raise ConfigurationError(
                f"substep must be in [0, {sched.n_substeps}), got {substep}"
            )
        self._rungs = rungs
        self._substep = int(substep)

    def _block_step(self) -> StepBreakdown | None:
        """One rung-resolved block advance of ``schedule.dt_min``.

        Bootstraps at a sync point with a full force pass (assigning
        rungs), then only the bodies whose step closes at the substep
        boundary pay for a masked force pass.  Substeps whose active set
        is empty perform no force work and return ``None``.
        """
        p = self.particles
        sched = self._schedule
        if self._last_acc is None or self._rungs is None:
            a0, b0 = self._force()
            self._account(b0)
            self._last_acc = np.ascontiguousarray(a0, dtype=np.float64)
            self._rungs = sched.assign(self._last_acc)
            self._substep = 0

        def force(active: np.ndarray) -> tuple[np.ndarray, StepBreakdown | None]:
            if active.size == 0:
                return np.zeros((0, 3), dtype=np.float64), None
            with obs.span(
                "force_pass", plan=self.plan.name, n=len(p), n_active=active.size
            ):
                acc_rows, bd = self.plan.compute_step(
                    p.positions, p.masses, active=active
                )
            if bd is not None:
                self._account(bd)
            return acc_rows, bd

        self._rungs, self._substep, payload = block_substep(
            p,
            rungs=self._rungs,
            substep=self._substep,
            schedule=sched,
            last_acc=self._last_acc,
            force=force,
        )
        self.time += sched.dt_min
        self.record.add_step()
        return payload

    def step(self) -> StepBreakdown:
        """Advance one leapfrog step; returns the step's timing breakdown.

        The first step performs two force passes (bootstrap + trailing);
        every later step one.  Both are accounted as force passes, but
        ``record.steps`` — and the ``step`` span's ``index`` — count
        leapfrog steps.

        Under a block-timestep plan a "step" is one rung-resolved block
        advance of ``dt / 2**(n_rungs - 1)``: only the rungs whose step
        closes at the substep boundary pay for a (masked) force pass, so
        ``force_passes`` grows by at most one per step and the return
        value is ``None`` for substeps whose active set is empty.
        """
        p = self.particles
        with obs.span(
            "step", plan=self.plan.name, n=len(p), index=self.record.steps
        ):
            if self._blockstep:
                return self._block_step()
            if self._last_acc is None:
                a0, b0 = self._force()
                self._account(b0)
            else:
                a0 = self._last_acc
            p.velocities += 0.5 * self.dt * a0
            p.positions += self.dt * p.velocities
            a1, b1 = self._force()
            self._account(b1)
            p.velocities += 0.5 * self.dt * a1
            self._last_acc = a1
            self.time += self.dt
            self.record.add_step()
        return b1

    def run(
        self,
        n_steps: int,
        *,
        callback: Callable[["Simulation"], None] | None = None,
        callback_every: int = 1,
    ) -> SimulationRecord:
        """Advance ``n_steps`` steps, optionally invoking a callback."""
        if n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
        if callback_every < 1:
            raise ConfigurationError(
                f"callback_every must be >= 1, got {callback_every}"
            )
        with obs.span(
            "simulation.run",
            plan=self.plan.name,
            n=len(self.particles),
            n_steps=n_steps,
        ):
            for k in range(1, n_steps + 1):
                self.step()
                if callback is not None and (k % callback_every == 0 or k == n_steps):
                    callback(self)
        return self.record
