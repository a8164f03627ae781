"""Block-timestep plan variants: only active rungs pay force cost.

Hierarchical power-of-two block timesteps (GOTHIC / Aarseth style) wrap an
existing force plan: :class:`~repro.nbody.timestep.BlockTimestepSchedule`
assigns every body a rung stepping at ``dt_max / 2**r``, and each substep
only the bodies whose step *closes* at its boundary — the active set —
receive a fresh force evaluation.  The wrapped plan evaluates the masked
pass:

* ``block-i`` compacts the active bodies into target rows of the same
  tiled rectangle primitive the i-parallel plan uses (targets = active,
  sources = all); per-row accumulation over source tiles depends only on
  the source set and the tile width, so active rows are **bit-identical**
  to the corresponding rows of a full evaluation.
* ``block-jw`` reuses the jw-parallel walk machinery and evaluates only
  the walks containing at least one active body, with the *full*
  evaluation's split counts, so evaluated walks are bit-identical to
  their rows in a full pass.

A full (unmasked) pass — used at sync points and by the generic
:meth:`Plan.accelerations` contract — delegates to the wrapped plan
unchanged.  :class:`repro.core.simulation.Simulation` detects the
``blockstep`` class attribute and drives the rung-resolved KDK loop of
:func:`repro.nbody.integrators.block_substep`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.core.plans.base import Plan, PlanConfig, StepBreakdown
from repro.core.plans.i_parallel import IParallelPlan  # noqa: F401 (inner)
from repro.core.plans.jw_parallel import JwParallelPlan
from repro.core.plans.registry import get_plan, register
from repro.core.plans.tree_base import evaluate_walks, segments
from repro.errors import ConfigurationError
from repro.exec.workspace import local_workspace
from repro.gpu.counters import CostCounters
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import (
    packed_tile_loop_work,
    reduction_work,
    tile_loop_forces,
    tile_loop_work,
)
from repro.gpu.launch import KernelLaunch
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY, TransferLog
from repro.gpu.timing import time_kernel
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


def _active_workgroup_task(
    rng: tuple[int, int],
    *,
    targets: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    wg_size: int,
    softening: float,
    G: float,
    device: DeviceSpec,
    backend: str | None = None,
) -> tuple[np.ndarray, CostCounters]:
    """One work-group of compacted active targets against all sources."""
    i0, i1 = rng
    counters = CostCounters()
    block = tile_loop_forces(
        targets[i0:i1],
        src_pos,
        src_mass,
        wg_size=wg_size,
        softening=softening,
        G=G,
        device=device,
        counters=counters,
        workspace=local_workspace(),
        backend=backend,
    )
    return block, counters


class BlockTimestepPlan(Plan):
    """Base for block-timestep wrappers around a registered force plan.

    Subclasses set ``inner_name`` (the wrapped plan) and implement
    :meth:`_active_step` — the masked force pass.  The ``blockstep``
    class attribute is the discovery hook used by the simulation, the
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

    # -- full pass: delegate -----------------------------------------------
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
        an index array evaluates forces **on** the active bodies from
        *all* bodies and returns ``(len(active), 3)`` rows bit-identical
        to the corresponding rows of the full pass.  An empty selection
        costs nothing and returns ``((0, 3) zeros, None)`` — no kernel is
        launched, so there is no breakdown to account.
        """
        if active is None:
            acc, bd = self.inner.compute_step(positions, masses)
            bd.plan = self.name
            return acc, bd
        active = np.asarray(active, dtype=np.int64)
        positions, masses = self._validate_bodies(positions, masses)
        if active.size == 0:
            return np.zeros((0, 3), dtype=np.float64), None
        if active.size and (active.min() < 0 or active.max() >= positions.shape[0]):
            raise ConfigurationError("active indices out of range")
        return self._active_step(positions, masses, active)

    def _active_step(
        self, positions: np.ndarray, masses: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _active_transfers(self, n: int, n_active: int) -> TransferLog:
        """Per-substep traffic: all bodies move (drift), active rows return."""
        log = TransferLog()
        log.host_to_device(n * BYTES_PER_BODY)
        log.device_to_host(n_active * BYTES_PER_ACCEL)
        return log


@register()
class BlockDirectPlan(BlockTimestepPlan):
    """All-pairs block timesteps: compacted active targets x all sources."""

    name = "block-i"
    method = "pp"
    inner_name = "i"

    def _active_step(
        self, positions: np.ndarray, masses: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        cfg = self.config
        n = positions.shape[0]
        targets = positions[active]
        nt = targets.shape[0]
        p = cfg.wg_size
        ranges = [(i0, min(i0 + p, nt)) for i0 in range(0, nt, p)]
        wgs = [
            tile_loop_work(
                f"active[{i0}:{i1}]",
                active_threads=i1 - i0,
                n_sources=n,
                wg_size=p,
                wavefront_size=cfg.device.wavefront_size,
            )
            for i0, i1 in ranges
        ]
        launch = KernelLaunch("block_i_forces", p, wgs)
        acc = np.empty((nt, 3), dtype=np.float32)
        counters = CostCounters()
        task = partial(
            _active_workgroup_task,
            targets=targets,
            src_pos=positions,
            src_mass=masses,
            wg_size=p,
            softening=cfg.softening,
            G=cfg.G,
            device=cfg.device,
            backend=self._kernel_backend(),
        )
        with obs.span("force_kernel", plan=self.name, n=n, n_active=nt):
            results = self._engine().map(task, ranges, label="block-i.workgroup")
        for (i0, i1), (block, c) in zip(ranges, results):
            acc[i0:i1] = block
            counters.add(c)
        assert counters.interactions == launch.total_interactions, (
            "functional/timing drift"
        )
        timing = time_kernel(cfg.device, launch)
        bd = StepBreakdown(
            plan=self.name,
            n_bodies=n,
            kernel_seconds=timing.seconds,
            host_seconds=0.0,
            transfer_seconds=self._active_transfers(n, nt).total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(n),
            overlapped=False,
            interactions=launch.total_interactions,
            issued_interactions=launch.total_issued_interactions,
            kernels=[timing],
            meta={"active_bodies": nt, "n_workgroups": launch.n_workgroups},
        )
        return acc.astype(np.float64), bd


@register()
class BlockTreePlan(BlockTimestepPlan):
    """Barnes-Hut block timesteps: evaluate only walks with active bodies.

    The tree is rebuilt every substep (all bodies drift), but only the
    walks containing at least one active body are evaluated — with the
    full pass's split counts, so evaluated rows stay bit-identical to a
    full jw evaluation of the same snapshot.
    """

    name = "block-jw"
    method = "bh"
    inner_name = "jw"

    def _active_step(
        self, positions: np.ndarray, masses: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        cfg = self.config
        inner: JwParallelPlan = self.inner
        walks = inner.prepare(positions, masses)
        tree = walks.tree
        n = tree.n_bodies
        # Map the active (original-order) indices into Morton order and
        # select the walks whose group holds at least one of them.
        inv = np.empty(n, dtype=np.int64)
        inv[tree.order] = np.arange(n, dtype=np.int64)
        sorted_active = np.zeros(n, dtype=bool)
        sorted_active[inv[active]] = True
        hits = np.concatenate([[0], np.cumsum(sorted_active)])
        selected = np.flatnonzero(hits[walks.groups[:, 1]] > hits[walks.groups[:, 0]])
        splits = inner.split_counts(walks)
        with obs.span(
            "force_kernel", plan=self.name, n_walks=len(selected), n_active=active.size
        ):
            acc_sorted, interactions = evaluate_walks(
                walks, splits, config=cfg, engine=self._engine(),
                backend=self._kernel_backend(), selected=selected,
            )
        acc_full = tree.unsort(acc_sorted.astype(np.float64))

        # Timing: the same packed launches jw would build, restricted to
        # the selected walks (split counts from the full pass).
        group_sizes = walks.group_sizes()
        lengths = walks.list_lengths()
        wgs = []
        needs_reduce = False
        for i in selected.tolist():
            s = int(splits[i])
            for k, (a, b) in enumerate(segments(int(lengths[i]), s)):
                wgs.append(
                    packed_tile_loop_work(
                        f"walk{i}.seg{k}",
                        n_targets=int(group_sizes[i]),
                        n_sources=b - a,
                        wg_size=cfg.wg_size,
                        wavefront_size=cfg.device.wavefront_size,
                    )
                )
            if s > 1:
                needs_reduce = True
        force = KernelLaunch("block_jw_forces", cfg.wg_size, wgs)
        assert interactions == force.total_interactions, "functional/timing drift"
        timings = [time_kernel(cfg.device, force, schedule=inner.schedule)]
        if needs_reduce:
            rwgs = [
                reduction_work(
                    f"reduce.walk{i}",
                    n_outputs=int(group_sizes[i]),
                    n_partials_per_output=int(splits[i]),
                    wg_size=cfg.wg_size,
                    wavefront_size=cfg.device.wavefront_size,
                )
                for i in selected.tolist()
                if splits[i] > 1
            ]
            timings.append(time_kernel(cfg.device, KernelLaunch(
                "block_jw_reduce", cfg.wg_size, rwgs)))
        kernel_seconds = sum(t.seconds for t in timings)
        tree_s, walk_s = inner._host_seconds(walks)
        # Masked passes do not overlap: the full walk generation cannot
        # hide behind a reduced kernel, so the conservative serial
        # composition is the honest model here.
        xfer = self._active_transfers(n, int(active.size))
        list_bytes = (
            int(walks.cell_counts()[selected].sum()) * BYTES_PER_BODY
            + int(walks.part_counts()[selected].sum()) * 4
        )
        xfer.host_to_device(list_bytes)
        bd = StepBreakdown(
            plan=self.name,
            n_bodies=n,
            kernel_seconds=kernel_seconds,
            host_seconds=tree_s + walk_s,
            transfer_seconds=xfer.total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(n),
            overlapped=False,
            interactions=force.total_interactions,
            issued_interactions=force.total_issued_interactions,
            kernels=timings,
            meta={
                "active_bodies": int(active.size),
                "n_walks": len(walks),
                "n_walks_active": len(selected),
                "theta": walks.theta,
            },
        )
        return acc_full[active], bd
