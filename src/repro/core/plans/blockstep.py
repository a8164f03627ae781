"""Block-timestep plan variants: only active rungs pay force cost.

Hierarchical power-of-two block timesteps (GOTHIC / Aarseth style) wrap an
existing force plan: :class:`~repro.nbody.timestep.BlockTimestepSchedule`
assigns every body a rung stepping at ``dt_max / 2**r``, and each substep
only the bodies whose step *closes* at its boundary — the active set —
receive a fresh force evaluation.  The wrapped plan's own masked pass
evaluates them (``masked_pass``: compacted target rows for ``i``, the
walks holding an active body for ``jw``), and its rows are bit-identical
to the same rows of a full pass.

A full (unmasked) pass — used at sync points and by the generic
:meth:`Plan.accelerations` contract — delegates to the wrapped plan
unchanged.  :class:`repro.core.simulation.Simulation` detects the
``blockstep`` class attribute and drives the rung-resolved KDK loop of
:func:`repro.nbody.integrators.block_substep`.
"""

from __future__ import annotations

import numpy as np

from repro.core.plans.base import Plan, PlanConfig, StepBreakdown
from repro.core.plans.registry import get_plan, register
from repro.errors import ConfigurationError
from repro.nbody.timestep import BlockTimestepSchedule

__all__ = [
    "BlockTimestepPlan",
    "BlockDirectPlan",
    "BlockTreePlan",
    "DEFAULT_N_RUNGS",
    "DEFAULT_STEP_ETA",
]

#: Rung count when ``PlanConfig.n_rungs`` is ``None``.
DEFAULT_N_RUNGS = 4
#: Timestep-criterion accuracy parameter when ``PlanConfig.step_eta`` is ``None``.
DEFAULT_STEP_ETA = 0.025


class BlockTimestepPlan(Plan):
    """Base for block-timestep wrappers around a registered force plan.

    Subclasses set ``inner_name``, the wrapped plan, which must provide
    ``masked_pass(positions, masses, active)``.  The ``blockstep`` class
    attribute is the discovery hook used by the simulation, the
    invariant policies and the checkpoint layer.
    """

    #: marks this plan as rung-driven for Simulation / policy_for / session
    blockstep = True
    #: registered name of the wrapped full-pass plan
    inner_name: str = "?"

    def __init__(
        self,
        config: PlanConfig | None = None,
        *,
        engine=None,
        **inner_kwargs,
    ) -> None:
        super().__init__(config, engine=engine)
        if self.config.softening <= 0.0:
            raise ConfigurationError(
                "block timesteps use the softened-gravity criterion; "
                f"softening must be positive, got {self.config.softening}"
            )
        self._inner = get_plan(
            self.inner_name, self.config, engine=engine, **inner_kwargs
        )

    @property
    def inner(self) -> Plan:
        """The wrapped plan, kept on this plan's execution engine."""
        self._inner.engine = self.engine
        return self._inner

    # -- schedule ----------------------------------------------------------
    def make_schedule(self, dt_max: float) -> BlockTimestepSchedule:
        """The rung schedule for a run whose coarsest step is ``dt_max``."""
        cfg = self.config
        return BlockTimestepSchedule(
            dt_max=dt_max,
            n_rungs=cfg.n_rungs if cfg.n_rungs is not None else DEFAULT_N_RUNGS,
            eta=cfg.step_eta if cfg.step_eta is not None else DEFAULT_STEP_ETA,
            softening=cfg.softening,
        )

    # -- force passes: delegate ----------------------------------------------
    def accelerations(self, positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
        return self.inner.accelerations(positions, masses)

    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        bd = self.inner.step_breakdown(positions, masses)
        bd.plan = self.name
        return bd

    def compute_step(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, StepBreakdown]:
        """One force pass; ``active`` restricts targets to those body rows.

        ``active=None`` is a full pass (identical to the wrapped plan);
        an integer index array evaluates forces **on** the active bodies
        from *all* bodies and returns ``(len(active), 3)`` rows
        bit-identical to the corresponding rows of the full pass.  An
        empty selection costs nothing and returns ``((0, 3) zeros,
        None)`` — no kernel is launched, so there is no breakdown to
        account.
        """
        if active is None:
            acc, bd = self.inner.compute_step(positions, masses)
            bd.plan = self.name
            return acc, bd
        active = np.asarray(active)
        if active.size and active.dtype.kind not in "iu":
            raise ConfigurationError(
                f"active must be integer row indices, got dtype {active.dtype}; "
                "pass np.flatnonzero(mask) for a boolean mask"
            )
        positions, masses = self._validate_bodies(positions, masses)
        if active.size == 0:
            return np.zeros((0, 3), dtype=np.float64), None
        if active.min() < 0 or active.max() >= positions.shape[0]:
            raise ConfigurationError("active indices out of range")
        acc, bd = self.inner.masked_pass(
            positions, masses, active.astype(np.int64, copy=False)
        )
        bd.plan = self.name
        return acc, bd


@register()
class BlockDirectPlan(BlockTimestepPlan):
    """All-pairs block timesteps: compacted active targets x all sources."""

    name = "block-i"
    method = "pp"
    inner_name = "i"


@register()
class BlockTreePlan(BlockTimestepPlan):
    """Barnes-Hut block timesteps: the tree is rebuilt every substep (all
    bodies drift), but only the walks holding an active body are
    evaluated."""

    name = "block-jw"
    method = "bh"
    inner_name = "jw"
