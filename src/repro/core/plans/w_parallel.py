"""w-parallel plan: Hamada et al.'s multiple-walk treecode.

Space mapping: one work-group per walk, one thread per walk body; walks
are the *tree's own cells* (maximal nodes with at most ``p`` bodies), so
group sizes follow the local density and rarely fill the work-group — the
~1/3 lane-utilisation loss the paper identifies.  Time mapping: the CPU
generates all walks first, then the GPU evaluates them — no overlap, so
Table 2's total time carries the full host cost.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.plans.base import StepBreakdown
from repro.core.plans.tree_base import TreePlanBase
from repro.core.plans.registry import register
from repro.gpu.kernel import tile_loop_work
from repro.gpu.launch import KernelLaunch
from repro.gpu.timing import time_kernel
from repro.gpu.trace import trace_launch
from repro.tree.octree import Octree
from repro.tree.walks import WalkSet, cell_groups

__all__ = ["WParallelPlan"]


@register()
class WParallelPlan(TreePlanBase):
    """Barnes-Hut, one block per tree-cell walk (multiple-walk method)."""

    name = "w"

    def _make_groups(self, tree: Octree) -> np.ndarray:
        return cell_groups(tree, self.config.wg_size)

    def _launch(self, walks: WalkSet) -> KernelLaunch:
        cfg = self.config
        work = tile_loop_work(
            active_threads=walks.group_sizes(),
            n_sources=walks.list_lengths(),
            wg_size=cfg.wg_size,
            wavefront_size=cfg.device.wavefront_size,
        )
        return KernelLaunch(
            "w_parallel_forces", cfg.wg_size, work,
            labels=lambda: [f"walk{i}" for i in range(len(walks))],
        )

    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        walks = self.prepare(positions, masses)
        return self.breakdown_from_walks(walks)

    def breakdown_from_walks(self, walks: WalkSet) -> StepBreakdown:
        """Timing of one force step given prepared walks."""
        cfg = self.config
        with obs.span("plan.breakdown", plan=self.name, n=walks.tree.n_bodies):
            launch = self._launch(walks)
            # Walks are statically pre-assigned to blocks (no work queue) — the
            # load-balancing gap the jw plan's dynamic queue closes.
            timing = time_kernel(cfg.device, launch, schedule="static")
        if obs.enabled:
            trace_launch(cfg.device, launch, schedule="static").emit_obs(
                seconds_per_unit=cfg.device.seconds(1.0), kernel=launch.name
            )
        tree_s, walk_s = self._host_seconds(walks)
        meta = self._walk_meta(walks)
        meta["lane_utilization"] = (
            launch.total_interactions / launch.total_issued_interactions
            if launch.total_issued_interactions
            else 1.0
        )
        return StepBreakdown(
            plan=self.name,
            n_bodies=walks.tree.n_bodies,
            kernel_seconds=timing.seconds,
            host_seconds=tree_s + walk_s,
            transfer_seconds=self._transfers(walks).total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(walks.tree.n_bodies),
            overlapped=False,
            interactions=launch.total_interactions,
            issued_interactions=launch.total_issued_interactions,
            kernels=[timing],
            meta=meta,
        )
