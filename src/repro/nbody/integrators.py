"""The hierarchical block-timestep advance.

The paper integrates with a fixed-step kick-drift-kick leapfrog, which
:meth:`repro.core.simulation.Simulation.step` performs; the 100-step
timing convention of Tables 1-3 is 100 of those steps.  The one
adaptive scheme beside it is the power-of-two block-rung leapfrog of
GOTHIC-style treecodes: :func:`block_substep` advances every body by one
finest-rung substep and re-evaluates forces only for the bodies whose
own step closes there.  ``Simulation`` drives it for the block plans
(``block-i``, ``block-jw``), with the rung bookkeeping in
:class:`~repro.nbody.timestep.BlockTimestepSchedule`.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

import numpy as np

from repro.nbody.particles import ParticleSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nbody.timestep import BlockTimestepSchedule

__all__ = ["block_substep"]


def block_substep(
    p: ParticleSet,
    *,
    rungs: np.ndarray,
    substep: int,
    schedule: "BlockTimestepSchedule",
    last_acc: np.ndarray,
    force: Callable[[np.ndarray], tuple[np.ndarray, Any]],
) -> tuple[np.ndarray, int, Any]:
    """One rung-resolved block advance of ``schedule.dt_min``.

    The hierarchical kick-drift-kick scheme: bodies whose own step
    *begins* at ``substep`` receive their opening half-kick from the
    acceleration cached at their last force evaluation (``last_acc``),
    every body drifts by ``dt_min`` (positions stay globally
    synchronised), and bodies whose step *closes* at the next boundary —
    the *active* set — get a fresh force evaluation, their closing
    half-kick, and a rung re-assignment under the block alignment rule.

    ``force(active_indices)`` must return ``((len(active), 3)``
    accelerations for the active bodies, payload)``; the payload (e.g. a
    timing breakdown) is passed through untouched.  ``p``, ``last_acc``
    are mutated in place; ``rungs`` is not.

    Returns ``(new_rungs, next_substep, payload)`` with ``next_substep``
    wrapped into ``[0, schedule.n_substeps)`` — ``0`` means the advance
    landed on a sync boundary and the system is fully synchronised.
    With ``n_rungs == 1`` this reduces exactly (bit-for-bit) to one
    fixed-step KDK leapfrog step of ``dt_max``.
    """
    dt_body = schedule.rung_dt(rungs)
    begins = schedule.begins(rungs, substep)
    p.velocities[begins] += 0.5 * dt_body[begins, np.newaxis] * last_acc[begins]
    p.positions += schedule.dt_min * p.velocities
    boundary = substep + 1
    closes = schedule.closes(rungs, boundary)
    active = np.flatnonzero(closes)
    acc_rows, payload = force(active)
    last_acc[active] = acc_rows
    p.velocities[active] += 0.5 * dt_body[active, np.newaxis] * acc_rows
    next_substep = boundary % schedule.n_substeps
    new_rungs = schedule.update(rungs, acc_rows, active, next_substep)
    return new_rungs, next_substep, payload
