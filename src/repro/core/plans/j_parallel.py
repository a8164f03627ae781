"""j-parallel plan: Hamada & Iitaka's "chamomile scheme".

Space mapping: the source (j) dimension is split into ``s`` segments, so
the grid has ``ceil(N/p) * s`` work-groups — enough to occupy every
compute unit even when N is small.  Each work-group accumulates *partial*
forces for its ``p`` targets over its source segment; a second,
memory-bound kernel reduces the ``s`` partials per target.

The split factor is chosen adaptively: just enough work-groups to fill
the machine with latency-hiding concurrency, never more (each extra split
adds partial-force traffic and reduction work).

As in the i plan, the work-groups set the simulated launch only; the CPU
functional path cuts the target rows by their work
(:meth:`~repro.core.plans.base.Plan._row_ranges`).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro import obs
from repro.core.plans.base import Plan, StepBreakdown
from repro.core.plans.registry import register
from repro.gpu.kernel import reduction_work, tile_loop_work
from repro.gpu.launch import KernelLaunch
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY, TransferLog, check_lds_fit
from repro.gpu.occupancy import MAX_WORKGROUPS_PER_CU
from repro.gpu.timing import time_kernel
from repro.nbody.forces import accelerations_from_sources

__all__ = ["JParallelPlan"]

#: Work-groups per compute unit the split targets (fills the resident slots).
_TARGET_WGS_PER_CU = 4


def _rows_task(
    rng: tuple[int, int],
    *,
    positions: np.ndarray,
    masses: np.ndarray,
    segments: list[tuple[int, int]],
    wg_size: int,
    softening: float,
    G: float,
    backend: str,
) -> tuple[np.ndarray, int]:
    """Target rows ``[i0, i1)``: float32 partial forces per j-segment in
    ``wg_size``-wide source tiles, then the fixed-order float32 segment
    reduction; returns the rows and the interactions evaluated (runs on
    an engine worker).

    Summing over the segment axis is elementwise, so a row's result does
    not depend on which other rows share its task.
    """
    i0, i1 = rng
    partials = np.zeros((len(segments), i1 - i0, 3), dtype=np.float32)
    interactions = 0
    for k, (j0, j1) in enumerate(segments):
        accelerations_from_sources(
            positions[i0:i1], positions[j0:j1], masses[j0:j1],
            softening=softening, G=G, block=wg_size, dtype=np.float32,
            out=partials[k], backend=backend,
        )
        interactions += (i1 - i0) * (j1 - j0)
    return partials.sum(axis=0, dtype=np.float32), interactions


@register()
class JParallelPlan(Plan):
    """All-pairs with source-dimension splitting (chamomile scheme)."""

    name = "j"
    method = "pp"

    def split_factor(self, n: int) -> int:
        """Number of j-segments for an N-body launch.

        Grows the grid to ``_TARGET_WGS_PER_CU`` work-groups per CU when
        the plain i-parallel grid would underfill the device; capped so a
        segment never gets smaller than one tile.
        """
        p = self.config.wg_size
        dev = self.config.device
        i_blocks = math.ceil(n / p)
        target = dev.compute_units * min(_TARGET_WGS_PER_CU, MAX_WORKGROUPS_PER_CU)
        s = max(1, math.ceil(target / i_blocks))
        max_s = max(1, math.ceil(n / p))  # at least one tile per segment
        return min(s, max_s)

    # -- work enumeration -------------------------------------------------
    def _segments(self, n: int, s: int) -> list[tuple[int, int]]:
        seg = math.ceil(n / s)
        return [(j0, min(j0 + seg, n)) for j0 in range(0, n, seg)]

    def _iblocks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Start and end rows of the ``p``-row i-blocks."""
        p = self.config.wg_size
        i0 = np.arange(0, n, p)
        return i0, np.minimum(i0 + p, n)

    def _force_launch(self, n: int) -> tuple[KernelLaunch, int]:
        """One work-group per (i-block, j-segment), segments fastest."""
        p = self.config.wg_size
        s = self.split_factor(n)
        i0, i1 = self._iblocks(n)
        j0, j1 = np.array(self._segments(n, s), dtype=np.int64).T
        work = tile_loop_work(
            active_threads=np.repeat(i1 - i0, j0.size),
            n_sources=np.tile(j1 - j0, i0.size),
            wg_size=p,
            wavefront_size=self.config.device.wavefront_size,
        )

        def labels() -> list[str]:
            return [
                f"i[{a}:{b}]xj[{c}:{d}]"
                for a, b in zip(i0.tolist(), i1.tolist())
                for c, d in zip(j0.tolist(), j1.tolist())
            ]

        return KernelLaunch("j_parallel_forces", p, work, labels=labels), s

    def _reduction_launch(self, n: int, s: int) -> KernelLaunch | None:
        if s <= 1:
            return None
        p = self.config.wg_size
        i0, i1 = self._iblocks(n)
        work = reduction_work(n_outputs=i1 - i0, n_partials_per_output=s, wg_size=p)
        return KernelLaunch(
            "j_parallel_reduce", p, work,
            labels=lambda: [f"reduce[{a}:{b}]" for a, b in zip(i0.tolist(), i1.tolist())],
        )

    def _transfers(self, n: int) -> TransferLog:
        log = TransferLog()
        log.host_to_device(n * BYTES_PER_BODY)
        log.device_to_host(n * BYTES_PER_ACCEL)
        return log

    # -- functional -------------------------------------------------------
    def accelerations(self, positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
        positions, masses = self._validate_bodies(positions, masses)
        n = positions.shape[0]
        cfg = self.config
        s = self.split_factor(n)
        check_lds_fit(cfg.device, cfg.wg_size * BYTES_PER_BODY)
        backend = self._kernel_backend()
        # partial forces per (rows, j-segment), then a float32 reduction,
        # matching the two-kernel structure; row ranges fan out across the
        # engine, each folding its own segments in fixed order
        ranges = self._row_ranges(n, n, backend)
        task = partial(
            _rows_task,
            positions=positions,
            masses=masses,
            segments=self._segments(n, s),
            wg_size=cfg.wg_size,
            softening=cfg.softening,
            G=cfg.G,
            backend=backend,
        )
        with obs.span("force_kernel", plan=self.name, n=n, split_factor=s):
            results = self._engine().map(task, ranges, label="j.rows")
        acc = np.empty((n, 3), dtype=np.float32)
        for (i0, i1), (rows, _) in zip(ranges, results):
            acc[i0:i1] = rows
        expected = self._breakdown(n).interactions
        interactions = sum(count for _, count in results)
        assert interactions == expected, "functional/timing drift"
        return acc.astype(np.float64)

    # -- timing -------------------------------------------------------------
    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        positions, masses = self._validate_bodies(positions, masses)
        n = positions.shape[0]
        with obs.span("plan.breakdown", plan=self.name, n=n):
            return self._breakdown(n)

    def _breakdown(self, n: int) -> StepBreakdown:
        """Simulated cost of an ``n``-body pass (priced once per ``n``; a
        copy per call)."""
        return self._priced((n,), lambda: self._price(n))

    def _price(self, n: int) -> StepBreakdown:
        cfg = self.config
        force_launch, s = self._force_launch(n)
        timings = [time_kernel(cfg.device, force_launch)]
        reduce_launch = self._reduction_launch(n, s)
        if reduce_launch is not None:
            timings.append(time_kernel(cfg.device, reduce_launch))
        kernel_seconds = sum(t.seconds for t in timings)
        return StepBreakdown(
            plan=self.name,
            n_bodies=n,
            kernel_seconds=kernel_seconds,
            host_seconds=0.0,
            transfer_seconds=self._transfers(n).total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(n),
            overlapped=False,
            interactions=force_launch.total_interactions,
            issued_interactions=force_launch.total_issued_interactions,
            kernels=timings,
            meta={
                "split_factor": s,
                "n_workgroups": force_launch.n_workgroups,
                "occupancy_efficiency": timings[0].occupancy.latency_efficiency,
            },
        )
