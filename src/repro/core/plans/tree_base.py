"""Shared machinery for the tree-based (w / jw) plans.

Both plans do the same host-side preparation — build the octree, generate
walks — and evaluate the same per-walk interaction lists on the device;
they differ in how walks are *grouped*, how threads map onto a walk's
interaction rectangle, and whether host work overlaps the kernel.  This
base class owns the shared parts so the two plans express only their
differences.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro import obs
from repro.core.plans.base import Plan, PlanConfig
from repro.exec.engine import ExecutionEngine
from repro.exec.workspace import local_workspace
from repro.gpu.counters import CostCounters
from repro.gpu.kernel import tile_loop_forces
from repro.gpu.memory import (
    BYTES_PER_ACCEL,
    BYTES_PER_BODY,
    TransferLog,
    check_lds_fit,
)
from repro.nbody.kernels import CExtensionBackend, resolve_backend
from repro.tree.bh_force import walk_sources
from repro.tree.octree import Octree, build_octree
from repro.tree.walks import WalkSet, generate_walks

__all__ = ["TreePlanBase", "evaluate_walks"]


def segments(length: int, s: int) -> list[tuple[int, int]]:
    """The ``[a, b)`` source ranges of a list of ``length`` cut ``s`` ways."""
    seg = math.ceil(length / s) if length else 0
    if seg == 0:
        return [(0, 0)]
    return [(a, min(a + seg, length)) for a in range(0, length, seg)]


def _walk_task(
    index: int,
    *,
    walks: WalkSet,
    splits: np.ndarray,
    config: PlanConfig,
    backend: str,
) -> tuple[np.ndarray, int]:
    """One walk's segments through :func:`tile_loop_forces`, reduced in
    segment order — the per-walk reference (runs on an engine worker)."""
    tree = walks.tree
    w = walks[index]
    ws = local_workspace()
    counters = CostCounters()
    src_pos, src_mass = walk_sources(tree, w, workspace=ws)
    targets = tree.positions[w.start : w.end]
    acc = np.zeros((w.n_bodies, 3), dtype=np.float32)
    for a, b in segments(w.list_length, int(splits[index])):
        tile_loop_forces(
            targets,
            src_pos[a:b],
            src_mass[a:b],
            wg_size=config.wg_size,
            softening=config.softening,
            G=config.G,
            device=config.device,
            counters=counters,
            out=acc,
            accumulate=True,
            workspace=ws,
            backend=backend,
        )
    return acc, counters.interactions


def _compiled_walks_task(
    ids: np.ndarray,
    *,
    walks: WalkSet,
    splits: np.ndarray,
    config: PlanConfig,
    backend: str,
) -> tuple[np.ndarray, int]:
    """A contiguous range of walks through the compiled backend (engine worker)."""
    tree = walks.tree
    return resolve_backend(backend).walk_forces(
        positions=tree.positions, masses=tree.masses,
        coms=tree.coms, node_masses=tree.node_masses,
        groups=walks.groups, cell_offsets=walks.cell_offsets, cells=walks.cells,
        part_offsets=walks.part_offsets, parts=walks.parts,
        ids=ids, splits=splits,
        eps2=config.softening * config.softening, G=config.G,
    )


def _ranges(walks: WalkSet, ids: np.ndarray, n: int) -> list[np.ndarray]:
    """``ids`` cut into at most ``n`` contiguous runs of similar total work."""
    if n <= 1 or ids.size <= 1:
        return [ids]
    csum = np.cumsum(walks.interactions_per_walk()[ids])
    cuts = np.searchsorted(csum, csum[-1] * np.arange(1, n) / n)
    return [run for run in np.split(ids, cuts) if run.size]


def evaluate_walks(
    walks: WalkSet,
    splits: np.ndarray,
    *,
    config: PlanConfig,
    engine: ExecutionEngine,
    backend: str | None = None,
    selected: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Device-kernel (float32) forces of the ``selected`` walks (all by default).

    Walk ``i``'s interaction list is cut into ``splits[i]`` j-segments
    whose partials accumulate in segment order; a one-segment walk is a
    w-parallel walk, bit for bit.  Returns the Morton-sorted ``(n, 3)``
    float32 accelerations (rows of unselected walks are zero) and the
    interactions evaluated.

    On the ``cext`` backend each engine worker takes one contiguous range
    of walks (a serial engine runs one task per pass) and
    :meth:`~repro.nbody.kernels.CExtensionBackend.walk_forces` gathers
    every segment in compiled code and hands it to the backend's
    ``sources`` kernel; any other backend maps the per-walk
    :func:`tile_loop_forces` path, the reference, over the walks.  Walks
    are independent, so every worker count gives bit-identical rows.
    """
    check_lds_fit(config.device, config.wg_size * BYTES_PER_BODY)
    ids = np.arange(len(walks)) if selected is None else np.asarray(selected, np.int64)
    splits = np.asarray(splits, dtype=np.int64)
    kb = resolve_backend(backend)
    task_args = dict(walks=walks, splits=splits, config=config, backend=kb.name)
    if isinstance(kb, CExtensionBackend):
        runs = _ranges(walks, ids, engine.workers)
        task = partial(_compiled_walks_task, **task_args)
        results = engine.map(task, runs, label="walks.compiled")
    else:
        task = partial(_walk_task, **task_args)
        results = engine.map(task, ids.tolist(), label="walks")
    acc_sorted = np.zeros((walks.tree.n_bodies, 3), dtype=np.float32)
    if ids.size:
        acc_sorted[walks.body_rows(ids)] = np.concatenate([b for b, _ in results])
    return acc_sorted, sum(c for _, c in results)


class TreePlanBase(Plan):
    """Common prepare / functional / transfer logic for tree plans."""

    method = "bh"

    # -- hooks the concrete plans override --------------------------------
    def _make_groups(self, tree: Octree) -> np.ndarray:
        """Return the ``(k, 2)`` body groups this plan forms walks from."""
        raise NotImplementedError

    # -- shared preparation -------------------------------------------------
    def prepare(self, positions: np.ndarray, masses: np.ndarray) -> WalkSet:
        """Host-side step: octree build + walk generation."""
        positions, masses = self._validate_bodies(positions, masses)
        with obs.span("tree_build", plan=self.name, n=positions.shape[0]):
            tree = build_octree(positions, masses, leaf_size=self.config.leaf_size)
        with obs.span("walk_gen", plan=self.name, theta=self.config.theta) as sp:
            walks = generate_walks(
                tree, theta=self.config.theta, groups=self._make_groups(tree)
            )
            sp.set(n_walks=len(walks))
        if obs.enabled:
            obs.inc("walks_total", len(walks))
        return walks

    # -- shared functional execution --------------------------------------
    def accelerations(self, positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
        walks = self.prepare(positions, masses)
        return self.accelerations_from_walks(walks)

    def split_counts(self, walks: WalkSet) -> np.ndarray:
        """Segments per walk: one — each walk's list is evaluated whole."""
        return np.ones(len(walks), dtype=np.int64)

    def accelerations_from_walks(self, walks: WalkSet) -> np.ndarray:
        """Device-kernel evaluation of prepared walks (float32).

        Walks are cut into :meth:`split_counts` segments and evaluated by
        :func:`evaluate_walks` on the plan's execution engine, so every
        engine backend and worker count produces bit-identical
        accelerations.
        """
        with obs.span("force_kernel", plan=self.name, n_walks=len(walks)):
            acc_sorted, interactions = evaluate_walks(
                walks, self.split_counts(walks), config=self.config,
                engine=self._engine(), backend=self._kernel_backend(),
            )
        assert interactions == walks.total_interactions, "functional/timing drift"
        return walks.tree.unsort(acc_sorted.astype(np.float64))

    def breakdown_from_walks(self, walks: WalkSet):
        """Timing of one force step given prepared walks (plan-specific)."""
        raise NotImplementedError

    def compute_step(self, positions: np.ndarray, masses: np.ndarray):
        """One force step sharing a single tree/walk preparation."""
        walks = self.prepare(positions, masses)
        return self.accelerations_from_walks(walks), self.breakdown_from_walks(walks)

    # -- shared cost pieces -------------------------------------------------
    def _host_seconds(self, walks: WalkSet) -> tuple[float, float]:
        """(tree build, walk generation) CPU seconds for this snapshot."""
        host = self.config.host
        tree_s = host.tree_build_seconds(walks.tree.n_bodies)
        walk_s = host.walk_generation_seconds(
            len(walks), int(walks.list_lengths().sum())
        )
        return tree_s, walk_s

    def _body_transfers(self, walks: WalkSet) -> TransferLog:
        """Per-step body upload + acceleration download."""
        n = walks.tree.n_bodies
        log = TransferLog()
        log.host_to_device(n * BYTES_PER_BODY)
        log.device_to_host(n * BYTES_PER_ACCEL)
        return log

    def _list_transfers(self, walks: WalkSet) -> TransferLog:
        """Interaction-list upload: cell monopoles ship as float4 bodies,
        particle-list entries as 4-byte indices into the body array."""
        cells = int(walks.cell_offsets[-1])
        parts = int(walks.part_offsets[-1])
        log = TransferLog()
        log.host_to_device(cells * BYTES_PER_BODY + parts * 4)
        return log

    def _transfers(self, walks: WalkSet) -> TransferLog:
        """All PCIe traffic of one step (bodies, lists, accelerations)."""
        log = self._body_transfers(walks)
        other = self._list_transfers(walks)
        log.h2d_bytes += other.h2d_bytes
        log.n_transfers += other.n_transfers
        return log

    def _walk_meta(self, walks: WalkSet) -> dict:
        """Diagnostic statistics shared by both plans' breakdowns."""
        sizes = walks.group_sizes()
        lists = walks.list_lengths()
        return {
            "n_walks": len(walks),
            "mean_group_size": float(sizes.mean()),
            "mean_list_length": float(lists.mean()),
            "load_imbalance": walks.load_imbalance(),
            "theta": walks.theta,
        }
