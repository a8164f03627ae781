"""jw-parallel plan — the paper's contribution (section 4.3).

Combines the j- and w-parallel ideas under the PTPM analysis:

* **Space — walks**: the same tree-cell walks as w-parallel (identical
  interaction lists), so every gain below is attributable to the mapping,
  the queue and the overlap rather than to different physics work.
* **Space — j-split**: each walk's interaction list is additionally split
  into segments assigned to *different* work-groups (the j-parallel idea),
  so even a handful of walks yields enough blocks to occupy every compute
  unit at small N; partial forces are combined by a reduction pass.
  Within a work-group the ``group x segment`` rectangle is flattened
  across all ``p`` threads, keeping lanes full regardless of group size —
  repairing w-parallel's lane-utilisation loss.
* **Scheduling**: persistent work-groups drain (walk, segment) items from
  a dynamic queue (greedy earliest-free-CU scheduling).
* **Time**: walk generation on the CPU is pipelined with kernel execution
  on the GPU, hiding the host cost that dominates w-parallel's total time.

The masked pass of a block-timestep run (:meth:`JwParallelPlan.masked_pass`)
evaluates only the walks holding an active body, through the same launch
builder as a full pass.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.plans.base import StepBreakdown
from repro.core.plans.tree_base import TreePlanBase, evaluate_walks, segment_bounds
from repro.core.plans.registry import register
from repro.errors import ConfigurationError
from repro.gpu.events import EventGraph
from repro.gpu.kernel import packed_tile_loop_work, reduction_work
from repro.gpu.launch import KernelLaunch
from repro.gpu.timing import KernelTiming, time_kernel
from repro.gpu.trace import trace_launch
from repro.tree.bh_force import walk_sources  # noqa: F401 - e2ebench/spans.py times this name
from repro.tree.octree import Octree
from repro.tree.walks import WalkSet, cell_groups

__all__ = ["JwParallelPlan", "DEFAULT_PIPELINE_BATCHES"]

#: Walk batches the host streams to the device queue per step.
DEFAULT_PIPELINE_BATCHES = 16

#: Queue items per compute unit the j-split targets.
_TARGET_ITEMS_PER_CU = 4


@register()
class JwParallelPlan(TreePlanBase):
    """Barnes-Hut with packed walks, j-split work items, dynamic queue, overlap."""

    name = "jw"

    def __init__(
        self,
        config=None,
        *,
        pipeline_batches: int = DEFAULT_PIPELINE_BATCHES,
        overlap: bool = True,
        schedule: str = "hardware",
        engine=None,
    ) -> None:
        super().__init__(config, engine=engine)
        if (
            isinstance(pipeline_batches, bool)
            or not isinstance(pipeline_batches, int)
            or pipeline_batches < 1
        ):
            raise ConfigurationError(
                f"pipeline_batches must be an int >= 1, got {pipeline_batches!r}"
            )
        if schedule not in ("hardware", "static"):
            raise ConfigurationError(
                f"schedule must be 'hardware' or 'static', got {schedule!r}"
            )
        self.pipeline_batches = pipeline_batches
        self.overlap = overlap
        self.schedule = schedule

    def _make_groups(self, tree: Octree) -> np.ndarray:
        # Same tree-cell walks as w-parallel: the jw plan's gains come from
        # the thread mapping, the dynamic queue and host/device overlap —
        # not from different interaction lists.
        return cell_groups(tree, self.config.wg_size)

    # -- j-split policy ----------------------------------------------------
    def split_counts(self, walks: WalkSet) -> np.ndarray:
        """Segments per walk: work-proportional splitting.

        The queue should hold at least ``_TARGET_ITEMS_PER_CU`` items per
        compute unit *and* no single item should exceed a fair share of
        the total work (otherwise one heavy walk sets the makespan — the
        tail effect that hurts w-parallel).  Each walk is therefore split
        in proportion to its interaction count, bounded below by one
        wavefront of sources per segment.
        """
        dev = self.config.device
        target = dev.compute_units * _TARGET_ITEMS_PER_CU
        work = walks.interactions_per_walk()
        total = int(work.sum())
        if total == 0:
            return np.ones(len(walks), dtype=np.int64)
        fair_share = max(1.0, total / target)
        s = np.maximum(1, np.ceil(work / fair_share).astype(np.int64))
        s_max = np.maximum(1, walks.list_lengths() // dev.wavefront_size)
        return np.minimum(s, s_max)

    # -- launches ------------------------------------------------------------
    def _launches(
        self,
        walks: WalkSet,
        splits: np.ndarray,
        selected: np.ndarray | None = None,
        kernel: str = "jw_parallel",
    ) -> tuple[KernelLaunch, list[KernelTiming]]:
        """The force launch of the ``selected`` walks (all by default) and
        the timings of it and, when a walk is split, its reduce launch.

        Walk ``i``'s list is cut into ``splits[i]`` queue items; a walk cut
        more than once adds one reduction work-group.
        """
        cfg = self.config
        ids = np.arange(len(walks)) if selected is None else np.asarray(selected, np.int64)
        sizes = walks.group_sizes()[ids]
        s = np.asarray(splits, dtype=np.int64)[ids]
        owner, rank, a, b = segment_bounds(walks.list_lengths()[ids], s)
        force = KernelLaunch(
            f"{kernel}_forces",
            cfg.wg_size,
            packed_tile_loop_work(
                n_targets=sizes[owner],
                n_sources=b - a,
                wg_size=cfg.wg_size,
                wavefront_size=cfg.device.wavefront_size,
            ),
            labels=lambda: [
                f"walk{i}.seg{k}" for i, k in zip(ids[owner].tolist(), rank.tolist())
            ],
        )
        timings = [time_kernel(cfg.device, force, schedule=self.schedule)]
        cut = np.flatnonzero(s > 1)
        if cut.size:
            reduce_launch = KernelLaunch(
                f"{kernel}_reduce",
                cfg.wg_size,
                reduction_work(
                    n_outputs=sizes[cut], n_partials_per_output=s[cut], wg_size=cfg.wg_size
                ),
                labels=lambda: [f"reduce.walk{i}" for i in ids[cut].tolist()],
            )
            timings.append(time_kernel(cfg.device, reduce_launch))
        return force, timings

    # -- masked pass ------------------------------------------------------------
    def masked_pass(
        self, positions: np.ndarray, masses: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        """Forces on the ``active`` bodies from every body, and their cost.

        ``active`` holds in-range body indices.  Only the walks holding an
        active body are evaluated, with the full pass's split counts, so
        the ``(len(active), 3)`` result is bit-identical to those rows of
        a full pass.  The full walk generation cannot hide behind the
        reduced kernel, so host and device work compose serially.
        """
        cfg = self.config
        walks = self.prepare(positions, masses)
        n = walks.tree.n_bodies
        selected = walks.holding(active)
        splits = self.split_counts(walks)
        with obs.span(
            "force_kernel", plan=self.name, n_walks=len(selected), n_active=active.size
        ):
            acc_sorted, interactions = evaluate_walks(
                walks, splits, config=cfg, engine=self._engine(),
                backend=self._kernel_backend(), selected=selected,
            )
        force, timings = self._launches(walks, splits, selected, "block_jw")
        assert interactions == force.total_interactions, "functional/timing drift"
        tree_s, walk_s = self._host_seconds(walks)
        bd = StepBreakdown(
            plan=self.name,
            n_bodies=n,
            kernel_seconds=sum(t.seconds for t in timings),
            host_seconds=tree_s + walk_s,
            transfer_seconds=self._transfers(
                walks, active.size, selected
            ).total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(n),
            overlapped=False,
            interactions=force.total_interactions,
            issued_interactions=force.total_issued_interactions,
            kernels=timings,
            meta={
                "active_bodies": active.size,
                "n_walks": len(walks),
                "n_walks_active": len(selected),
                "theta": walks.theta,
            },
        )
        return walks.tree.unsort(acc_sorted.astype(np.float64))[active], bd

    # -- timing -------------------------------------------------------------
    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        walks = self.prepare(positions, masses)
        return self.breakdown_from_walks(walks)

    def breakdown_from_walks(self, walks: WalkSet) -> StepBreakdown:
        """Timing of one force step given prepared walks."""
        cfg = self.config
        splits = self.split_counts(walks)
        with obs.span("plan.breakdown", plan=self.name, n=walks.tree.n_bodies):
            force, timings = self._launches(walks, splits)
        kernel_seconds = sum(t.seconds for t in timings)
        tree_s, walk_s = self._host_seconds(walks)
        if obs.enabled:
            # Replay the (walk, segment) queue onto compute units so the
            # exported trace shows one lane per CU — the PTPM space axis.
            trace_launch(cfg.device, force, schedule=self.schedule).emit_obs(
                seconds_per_unit=cfg.device.seconds(1.0), kernel=force.name
            )
            obs.inc("queue_items_total", force.n_workgroups)

        if self.overlap:
            # Tree build precedes all walk generation; walk batches then
            # stream through PCIe into the device's work queue
            # (CPU -> DMA -> GPU, three overlapping resources).  The list
            # upload is the pipeline's DMA stage; only bodies stay outside.
            b = min(self.pipeline_batches, len(walks))
            host = [walk_s / b] * b
            host[0] += tree_s
            list_xfer_s = self._list_transfers(walks).total_time(cfg.device)
            pipeline_total = EventGraph.pipelined_step(
                host, [list_xfer_s / b] * b, [kernel_seconds / b] * b
            ).makespan()
            transfers = self._body_transfers(walks)
        else:
            pipeline_total = None
            transfers = self._transfers(walks)

        meta = self._walk_meta(walks)
        meta["lane_utilization"] = (
            force.total_interactions / force.total_issued_interactions
            if force.total_issued_interactions
            else 1.0
        )
        meta["pipeline_batches"] = self.pipeline_batches
        meta["schedule"] = self.schedule
        meta["n_queue_items"] = force.n_workgroups
        meta["mean_split"] = float(np.mean(splits))
        return StepBreakdown(
            plan=self.name,
            n_bodies=walks.tree.n_bodies,
            kernel_seconds=kernel_seconds,
            host_seconds=tree_s + walk_s,
            transfer_seconds=transfers.total_time(cfg.device),
            serial_seconds=cfg.host.integration_seconds(walks.tree.n_bodies),
            overlapped=self.overlap,
            interactions=force.total_interactions,
            issued_interactions=force.total_issued_interactions,
            kernels=timings,
            pipeline_total=pipeline_total,
            meta=meta,
        )
