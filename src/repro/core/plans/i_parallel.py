"""i-parallel plan: Nyland et al.'s GPU Gems 3 all-pairs kernel.

Space mapping (Fig. 3 of the paper): one thread per target body i, one
work-group of ``p`` threads per ``p`` consecutive targets; every work-group
serially walks all N source bodies in ``p``-wide tiles staged through
local memory.  The grid therefore has ``ceil(N/p)`` work-groups — at small
N far fewer than the device's compute units, which is exactly the
occupancy starvation the paper's Fig. 4/5 analysis attributes to this
plan.

A full pass targets every row; the masked pass of a block-timestep run
(:meth:`IParallelPlan.masked_pass`) compacts the active rows into the
same work-groups.

The work-groups are the simulated device's: they set the launch the
timing model prices.  The CPU functional path cuts the target rows by
their work instead (:meth:`~repro.core.plans.base.Plan._row_ranges`): a
compiled kernel backend runs at most one engine task per worker, and a
pass under twice :data:`~repro.exec.engine.MIN_TASK_WORK` runs as one
task on the calling thread; the NumPy reference keeps one task per
work-group.  Each task runs its rows through
:func:`~repro.nbody.forces.accelerations_from_sources` in float32 with
``block`` = ``p``, the device's tile width, on the plan's kernel
backend.  A row's sum depends only on its target and the sources, so
every cut gives the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from repro import obs
from repro.core.plans.base import Plan, StepBreakdown
from repro.core.plans.registry import register
from repro.gpu.kernel import tile_loop_work
from repro.gpu.launch import KernelLaunch, WorkGroups
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY, TransferLog, check_lds_fit
from repro.gpu.timing import time_kernel
from repro.nbody.forces import accelerations_from_sources

__all__ = ["IParallelPlan"]


def _rows_task(
    rng: tuple[int, int],
    *,
    targets: np.ndarray,
    positions: np.ndarray,
    masses: np.ndarray,
    wg_size: int,
    softening: float,
    G: float,
    backend: str,
) -> tuple[np.ndarray, int]:
    """Float32 rows ``[i0, i1)`` against every body in ``wg_size``-wide
    source tiles, and the interactions evaluated (runs on an engine
    worker)."""
    i0, i1 = rng
    rows = accelerations_from_sources(
        targets[i0:i1], positions, masses,
        softening=softening, G=G, block=wg_size, dtype=np.float32, backend=backend,
    )
    return rows, (i1 - i0) * positions.shape[0]


@lru_cache(maxsize=32)
def _rows_work(rows: int, n: int, wg_size: int, wavefront_size: int) -> WorkGroups:
    """Work of ``rows`` target rows against ``n`` bodies, ``wg_size`` rows
    per work-group.  Every pass of one shape has the same work, and a
    launch of a few work-groups costs more to build as columns than to
    time, so each shape's columns are built once and shared (no one
    writes to them)."""
    i0 = np.arange(0, rows, wg_size)
    return tile_loop_work(
        active_threads=np.minimum(i0 + wg_size, rows) - i0,
        n_sources=n,
        wg_size=wg_size,
        wavefront_size=wavefront_size,
    )


@register()
class IParallelPlan(Plan):
    """All-pairs, thread-per-target-body (GPU Gems 3)."""

    name = "i"
    method = "pp"

    # -- work enumeration -------------------------------------------------
    def _launch(self, rows: int, n: int, kernel: str) -> KernelLaunch:
        """``rows`` target rows against all ``n`` bodies."""
        p = self.config.wg_size
        work = _rows_work(rows, n, p, self.config.device.wavefront_size)
        return KernelLaunch(
            kernel, p, work,
            labels=lambda: [f"i[{a}:{min(a + p, rows)}]" for a in range(0, rows, p)],
        )

    def _transfers(self, rows: int, n: int) -> TransferLog:
        log = TransferLog()
        log.host_to_device(n * BYTES_PER_BODY)  # positions+masses up
        log.device_to_host(rows * BYTES_PER_ACCEL)  # target accelerations down
        return log

    # -- functional -------------------------------------------------------
    def _forces(
        self, targets: np.ndarray, positions: np.ndarray, masses: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Float32 forces on ``targets`` from every body, and the
        interactions evaluated."""
        cfg = self.config
        check_lds_fit(cfg.device, cfg.wg_size * BYTES_PER_BODY)
        acc = np.empty((targets.shape[0], 3), dtype=np.float32)
        backend = self._kernel_backend()
        task = partial(
            _rows_task,
            targets=targets,
            positions=positions,
            masses=masses,
            wg_size=cfg.wg_size,
            softening=cfg.softening,
            G=cfg.G,
            backend=backend,
        )
        ranges = self._row_ranges(targets.shape[0], positions.shape[0], backend)
        results = self._engine().map(task, ranges, label="i.rows")
        for (i0, i1), (rows, _) in zip(ranges, results):
            acc[i0:i1] = rows
        return acc, sum(count for _, count in results)

    def accelerations(self, positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
        positions, masses = self._validate_bodies(positions, masses)
        n = positions.shape[0]
        with obs.span("force_kernel", plan=self.name, n=n):
            acc, interactions = self._forces(positions, positions, masses)
        expected = self._breakdown(n, n, "i_parallel_forces").interactions
        assert interactions == expected, "functional/timing drift"
        return acc.astype(np.float64)

    def masked_pass(
        self, positions: np.ndarray, masses: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        """Forces on the ``active`` rows from every body, and their cost.

        ``active`` holds in-range row indices.  Each row's sum over the
        source tiles depends only on the sources and the tile width, so
        the ``(len(active), 3)`` result is bit-identical to those rows
        of a full pass.
        """
        positions, masses = self._validate_bodies(positions, masses)
        n = positions.shape[0]
        with obs.span("force_kernel", plan=self.name, n=n, n_active=active.size):
            acc, interactions = self._forces(positions[active], positions, masses)
        bd = self._breakdown(active.size, n, "block_i_forces")
        assert interactions == bd.interactions, "functional/timing drift"
        bd.meta["active_bodies"] = active.size
        return acc.astype(np.float64), bd

    # -- timing -------------------------------------------------------------
    def _breakdown(self, rows: int, n: int, kernel: str) -> StepBreakdown:
        """Simulated cost of ``rows`` target rows against all ``n`` bodies
        (priced once per shape; a copy per call)."""
        return self._priced(
            (rows, n, kernel), lambda: self._price(rows, n, kernel)
        )

    def _price(self, rows: int, n: int, kernel: str) -> StepBreakdown:
        cfg = self.config
        launch = self._launch(rows, n, kernel)
        timing = time_kernel(cfg.device, launch)
        return StepBreakdown(
            plan=self.name,
            n_bodies=n,
            kernel_seconds=timing.seconds,
            host_seconds=0.0,
            transfer_seconds=self._transfers(rows, n).total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(n),
            overlapped=False,
            interactions=launch.total_interactions,
            issued_interactions=launch.total_issued_interactions,
            kernels=[timing],
            meta={"n_workgroups": launch.n_workgroups},
        )

    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        positions, masses = self._validate_bodies(positions, masses)
        n = positions.shape[0]
        with obs.span("plan.breakdown", plan=self.name, n=n):
            bd = self._breakdown(n, n, "i_parallel_forces")
        bd.meta["tiles_per_workgroup"] = math.ceil(n / self.config.wg_size)
        bd.meta["occupancy_efficiency"] = bd.kernels[0].occupancy.latency_efficiency
        return bd
