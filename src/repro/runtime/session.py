"""Fault-tolerant run sessions: periodic checkpoints, bit-exact resume.

:class:`RunSession` wraps a :class:`~repro.core.simulation.Simulation`
and drives it toward a target step count, persisting the complete
integrator state every ``checkpoint_every`` steps through
:mod:`repro.runtime.checkpoint`.  A run killed between checkpoints —
crash, SIGTERM, injected fault — resumes from the last completed
checkpoint with :meth:`RunSession.resume` and produces positions and
velocities **bit-identical** to an uninterrupted run:

* particle arrays and the physical time round-trip losslessly as
  float64;
* the kick-drift-kick integrator's one piece of hidden state — the
  cached trailing acceleration — is saved and re-seeded, so the resumed
  run replays the exact force-pass sequence (same ``force_passes``
  accounting, no spurious bootstrap pass);
* force evaluation itself is deterministic on every
  :class:`~repro.exec.ExecutionEngine` backend (parallel is bit-identical
  to serial), so recomputed steps match regardless of worker count.

Usage::

    sim = Simulation(plummer(4096, seed=1), plan_by_name("jw"), dt=1e-3)
    session = RunSession(sim, "runs/plummer4k", checkpoint_every=25)
    session.run(1000)

    # later, after a crash anywhere in those 1000 steps:
    session = RunSession.resume("runs/plummer4k")
    session.run()          # continues to the original target

Observability: each checkpoint emits a ``runtime.checkpoint`` span and
bumps the ``checkpoints_total`` counter; the stepping loop runs inside a
``runtime.run`` span and resume emits a ``runtime.resume`` instant.

Verification: a session can carry a :class:`~repro.check.RunGuard`
(``guard=`` keyword, or on by default via ``repro.configure(verify=...)``
/ ``REPRO_CHECK_ENABLED=1``).  The guard captures an invariant baseline
when the run starts and re-evaluates energy/momentum conservation and
finite-state sentinels at every checkpoint — *before* the state is
persisted, so a violating state never becomes a resumable checkpoint —
raising :class:`~repro.errors.VerificationError` on violation.

Durable accounting: a session can additionally carry a
:class:`~repro.obs.ledger.RunLedger` (``ledger=`` keyword, or on by
default via ``repro.configure(ledger_dir=...)`` / ``REPRO_LEDGER_DIR``).
The ledger is a pure observer — it records submission, per-``advance``
slices, checkpoints, completion/failure and final totals to SQLite, and
never feeds anything back into the run, so ledgered and unledgered runs
are bit-identical.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro import obs
from repro.core.plans import Plan, plan_by_name
from repro.core.simulation import Simulation, SimulationRecord
from repro.errors import CheckpointError, ConfigurationError, StateError
from repro.exec.engine import ExecutionEngine
from repro.runtime.checkpoint import (
    CheckpointInfo,
    RunManifest,
    plan_config_from_dict,
    plan_config_to_dict,
    read_block_state,
    read_checkpoint,
    write_checkpoint,
)

__all__ = ["RunSession", "is_resumable"]


def is_resumable(directory: str | Path) -> bool:
    """Whether ``directory`` holds an incomplete run a session can resume.

    True only when a manifest reads back with at least one checkpoint
    *and* that checkpoint's payload loads cleanly — the gate a worker
    shard applies before adopting an orphaned job left by a killed
    sibling, so a torn or corrupt orphan is re-run from scratch instead
    of poisoning the resumed run.  A *complete* run is not "resumable";
    it is a cache hit and callers should load it instead.
    """
    directory = Path(directory)
    try:
        manifest = RunManifest.read(directory)
    except (CheckpointError, OSError):
        return False
    if manifest.status == "complete" or not manifest.checkpoints:
        return False
    try:
        read_checkpoint(directory / manifest.latest.path)
    except (CheckpointError, OSError, ValueError, KeyError):
        return False
    return True


class RunSession:
    """Checkpointed, resumable execution of a :class:`Simulation`.

    Parameters
    ----------
    simulation:
        The simulation to drive.  For resumable runs its plan must be a
        registered plan (``plan_by_name``-constructible), block-timestep
        plans included.
    directory:
        Run directory for the manifest and checkpoints.  Must not already
        contain a manifest — resuming an existing run goes through
        :meth:`resume`, which protects against two sessions silently
        interleaving checkpoints into one directory.
    checkpoint_every:
        Steps between periodic checkpoints; ``0`` checkpoints only at
        completion.  The final state is always checkpointed.
    guard:
        A :class:`~repro.check.RunGuard` evaluated at every checkpoint,
        ``False`` to opt out even when verification is globally enabled,
        or ``None`` (default) to resolve through
        ``repro.configure(verify=...)`` / ``REPRO_CHECK_*``.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` this session appends its
        run accounting to, ``False`` to opt out even when a ledger
        directory is globally configured, or ``None`` (default) to
        resolve through ``repro.configure(ledger_dir=...)`` /
        ``REPRO_LEDGER_DIR``.
    """

    def __init__(
        self,
        simulation: Simulation,
        directory: str | Path,
        *,
        checkpoint_every: int = 0,
        guard: "RunGuard | bool | None" = None,
        ledger: "RunLedger | bool | None" = None,
        _manifest: RunManifest | None = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.simulation = simulation
        self.directory = Path(directory)
        self.checkpoint_every = checkpoint_every
        if guard is None:
            from repro.check.guards import default_guard

            guard = default_guard()
        elif guard is False:
            guard = None
        elif guard is True:
            from repro.check.guards import RunGuard

            guard = RunGuard()
        #: invariant watchdog evaluated at every checkpoint (may be None)
        self.guard = guard
        if ledger is None:
            from repro.obs.ledger import default_ledger

            ledger = default_ledger()
        elif ledger is False:
            ledger = None
        #: durable run ledger this session appends to (may be None)
        self.ledger = ledger
        self._ledger_run_id: int | None = None
        self._ledger_done = False
        self._ledger_slices = 0
        self._ledger_wall = 0.0
        #: ledger ``source`` tag (``resume`` overwrites it in resume())
        self._ledger_source = "run"
        #: checkpoints written by *this* session object
        self.checkpoints_written = 0
        if _manifest is not None:
            self.manifest: RunManifest | None = _manifest
        else:
            if (self.directory / "manifest.json").exists():
                raise CheckpointError(
                    f"{self.directory} already holds a run manifest; use "
                    "RunSession.resume() to continue it or pick a fresh directory"
                )
            self.manifest = None

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self, target_steps: int | None = None) -> int:
        """Validate and record the absolute step target; returns it.

        Prepares (or extends) the manifest without advancing the
        simulation — the first half of :meth:`run`, split out so a
        scheduler can interleave many sessions through repeated
        :meth:`advance` slices.  ``None`` reuses the target recorded in
        the manifest (the resume case); a larger target extends a
        finished run.
        """
        sim = self.simulation
        if target_steps is None:
            if self.manifest is None:
                raise ConfigurationError(
                    "target_steps is required for a fresh session"
                )
            target_steps = self.manifest.target_steps
        if target_steps < 1:
            raise ConfigurationError(
                f"target_steps must be >= 1, got {target_steps}"
            )
        if target_steps < sim.record.steps:
            raise ConfigurationError(
                f"target_steps {target_steps} is behind the simulation "
                f"(already at step {sim.record.steps})"
            )
        self._ensure_manifest(target_steps)
        if self.guard is not None and not self.guard.primed:
            self.guard.prime(sim)
        self._ledger_open(target_steps)
        return target_steps

    # -- ledger observers (never feed back into the run) ----------------
    def _ledger_open(self, target_steps: int) -> None:
        if self.ledger is None or self._ledger_run_id is not None:
            return
        sim = self.simulation
        self._ledger_run_id = self.ledger.record_submitted(
            source=self._ledger_source,
            plan=sim.plan.name,
            n=len(sim.particles),
            dt=sim.dt,
            steps=target_steps,
            checkpoint_dir=str(self.directory),
        )
        self.ledger.record_started(
            self._ledger_run_id, backend=sim.plan._engine().effective_backend
        )

    def _ledger_slice(self, steps: int, wall_s: float) -> None:
        if self.ledger is None or self._ledger_run_id is None or steps == 0:
            return
        self._ledger_slices += 1
        self._ledger_wall += wall_s
        self.ledger.record_slice(
            self._ledger_run_id,
            seq=self._ledger_slices,
            steps=steps,
            wall_s=wall_s,
        )

    def _ledger_finish(
        self, status: str, error: BaseException | None = None
    ) -> None:
        if (
            self.ledger is None
            or self._ledger_run_id is None
            or self._ledger_done
        ):
            return
        self._ledger_done = status in ("complete", "cached")
        record = self.simulation.record
        fields: dict = dict(
            wall_s=self._ledger_wall,
            simulated_s=record.simulated_seconds,
            force_passes=record.force_passes,
        )
        if error is not None:
            fields["error"] = f"{type(error).__name__}: {error}"
            report = getattr(error, "report", None)
            if report is not None:
                fields["invariant_report"] = repr(report)
        self.ledger.record_finished(
            self._ledger_run_id, status=status, **fields
        )

    def advance(
        self,
        max_steps: int | None = None,
        *,
        callback: Callable[[Simulation], None] | None = None,
        callback_every: int = 1,
    ) -> bool:
        """Advance up to ``max_steps`` steps toward the manifest target.

        Returns ``True`` once the target is reached (the final checkpoint
        is then written), ``False`` while work remains.  ``None`` runs to
        the target in one call.  Periodic checkpoints and callbacks fire
        exactly as in :meth:`run`, and the step sequence — hence the
        physics — is bit-identical for every slicing: a session advanced
        in 1-step slices by a job scheduler interleaving other sessions
        equals the same session run alone.
        """
        if self.manifest is None:
            raise StateError("advance() before start()/run(): no target yet")
        if max_steps is not None and max_steps < 1:
            raise ConfigurationError(
                f"max_steps must be >= 1 or None, got {max_steps}"
            )
        if callback_every < 1:
            raise ConfigurationError(
                f"callback_every must be >= 1, got {callback_every}"
            )
        sim = self.simulation
        target = self.manifest.target_steps
        if sim.record.steps >= target and self.complete:
            return True
        done = 0
        t0 = time.perf_counter()
        try:
            while sim.record.steps < target:
                sim.step()
                done += 1
                k = sim.record.steps
                if (
                    self.checkpoint_every
                    and k % self.checkpoint_every == 0
                    and k < target
                ):
                    self.checkpoint()
                if callback is not None and (
                    k % callback_every == 0 or k == target
                ):
                    callback(sim)
                if self.guard is not None:
                    self.guard.maybe_check(sim)
                if max_steps is not None and done >= max_steps:
                    break
            if sim.record.steps >= target:
                self.checkpoint(final=True)
                self._ledger_slice(done, time.perf_counter() - t0)
                self._ledger_finish("complete")
                return True
        except BaseException as exc:
            self._ledger_slice(done, time.perf_counter() - t0)
            self._ledger_finish("failed", exc)
            raise
        self._ledger_slice(done, time.perf_counter() - t0)
        return False

    def run(
        self,
        target_steps: int | None = None,
        *,
        callback: Callable[[Simulation], None] | None = None,
        callback_every: int = 1,
    ) -> SimulationRecord:
        """Advance the simulation to ``target_steps`` *total* steps.

        Unlike :meth:`Simulation.run` (which advances a relative count),
        the target here is absolute so that fresh and resumed sessions
        share one notion of "done": a fresh ``run(100)`` and a resumed
        ``run()`` both finish at step 100.  Equivalent to :meth:`start`
        followed by one unbounded :meth:`advance`.
        """
        sim = self.simulation
        if callback_every < 1:
            raise ConfigurationError(
                f"callback_every must be >= 1, got {callback_every}"
            )
        target_steps = self.start(target_steps)
        with obs.span(
            "runtime.run",
            plan=sim.plan.name,
            n=len(sim.particles),
            target_steps=target_steps,
            from_step=sim.record.steps,
        ):
            self.advance(None, callback=callback, callback_every=callback_every)
        return sim.record

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, *, final: bool = False) -> Path:
        """Persist the current state; returns the checkpoint directory.

        The checkpoint directory is fully written before the manifest is
        updated to list it, so an interrupted checkpoint is invisible to
        :meth:`resume` rather than half-loaded.
        """
        sim = self.simulation
        if self.manifest is None:
            raise CheckpointError("checkpoint() before run(): no manifest yet")
        if self.guard is not None and self.guard.primed:
            # Verify BEFORE persisting: a violating state must never
            # become the checkpoint a later resume trusts.
            self.guard.check(sim, where="final" if final else "checkpoint")
        step = sim.record.steps
        name = f"ckpt_{step:08d}"
        with obs.span("runtime.checkpoint", step=step, final=final):
            write_checkpoint(
                self.directory / name,
                particles=sim.particles,
                time=sim.time,
                plan_name=sim.plan.name,
                record=sim.record.to_dict(),
                last_acceleration=sim.last_acceleration,
                rungs=sim.rungs if sim.blockstep else None,
                substep=sim.substep if sim.blockstep else 0,
            )
            if not any(c.step == step for c in self.manifest.checkpoints):
                self.manifest.checkpoints.append(
                    CheckpointInfo(
                        step=step,
                        time=sim.time,
                        path=name,
                        force_passes=sim.record.force_passes,
                    )
                )
            self.manifest.status = "complete" if final else "running"
            self.manifest.write(self.directory)
        obs.inc("checkpoints_total")
        self.checkpoints_written += 1
        if self.ledger is not None and self._ledger_run_id is not None:
            self.ledger.record_event(
                "checkpoint", name, run_id=self._ledger_run_id
            )
        return self.directory / name

    def _ensure_manifest(self, target_steps: int) -> None:
        if self.manifest is None:
            self.manifest = RunManifest(
                plan=self.simulation.plan.name,
                plan_config=plan_config_to_dict(self.simulation.plan.config),
                dt=self.simulation.dt,
                target_steps=target_steps,
                checkpoint_every=self.checkpoint_every,
            )
        else:
            self.manifest.target_steps = target_steps
            self.manifest.checkpoint_every = self.checkpoint_every
            self.manifest.status = "running"
        self.manifest.write(self.directory)

    # ------------------------------------------------------------------
    # resuming
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        directory: str | Path,
        *,
        plan: Plan | str | None = None,
        engine: ExecutionEngine | None = None,
        guard: "RunGuard | bool | None" = None,
        ledger: "RunLedger | bool | None" = None,
    ) -> "RunSession":
        """Rebuild a session from the last completed checkpoint.

        ``plan`` overrides plan reconstruction: an instance is used as-is
        (required when the original run used a custom device/host spec),
        a registered name re-resolves with the *manifest's* plan config —
        e.g. ``resume(d, plan="w")`` replays a ``jw`` run under the
        w-parallel plan.  ``engine`` rewires force execution — safe for
        any backend/worker count because parallel execution is
        bit-identical to serial.  ``guard`` and ``ledger`` resolve as in
        the constructor; the resumed run is recorded with
        ``source='resume'``.
        """
        directory = Path(directory)
        manifest = RunManifest.read(directory)
        info = manifest.latest
        particles, time, record, last_acc = read_checkpoint(
            directory / info.path
        )
        if plan is None or isinstance(plan, str):
            plan = plan_by_name(
                manifest.plan if plan is None else plan,
                plan_config_from_dict(manifest.plan_config),
                engine=engine,
            )
        elif engine is not None:
            plan.engine = engine
        sim = Simulation(particles, plan, dt=manifest.dt)
        sim.time = time
        sim.record = SimulationRecord.from_dict(record)
        if last_acc is not None:
            sim.seed_forces(last_acc)
        rungs, substep = read_block_state(directory / info.path)
        if rungs is not None and sim.blockstep:
            # Mid-sync-interval state: the resumed run replays the exact
            # substep/rung sequence (bit-identical to uninterrupted).
            sim.seed_rungs(rungs, substep)
        obs.instant(
            "runtime.resume",
            step=sim.record.steps,
            target_steps=manifest.target_steps,
            plan=manifest.plan,
        )
        session = cls(
            sim,
            directory,
            checkpoint_every=manifest.checkpoint_every,
            guard=guard,
            ledger=ledger,
            _manifest=manifest,
        )
        session._ledger_source = "resume"
        return session

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """Whether the run has reached its manifest target."""
        return self.manifest is not None and self.manifest.status == "complete"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        step = self.simulation.record.steps
        return (
            f"RunSession(dir={str(self.directory)!r}, step={step}, "
            f"checkpoint_every={self.checkpoint_every})"
        )
