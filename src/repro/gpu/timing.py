"""Timing engine: work-group costs, CU scheduling, kernel makespan.

The engine converts the *actual* per-work-group work recorded in a
:class:`~repro.gpu.launch.KernelLaunch` into engine cycles
(:func:`launch_cycles`, one array expression over the launch's
work-group columns), then schedules the work-groups onto compute units
the way the hardware dispatcher does (greedy, earliest-available CU) and
reports the makespan.  The occupancy model scales compute throughput when
too few wavefronts are resident — which is the mechanism behind the
paper's small-N results.

:func:`dispatch` is the one model of the PTPM *space* axis: the kernel
timings, the execution traces and the queue ablation all place their
items on workers through it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec
from repro.gpu.launch import KernelLaunch, WorkGroups
from repro.gpu.occupancy import OccupancyInfo, kernel_occupancy

__all__ = [
    "BARRIER_CYCLES",
    "WG_DISPATCH_CYCLES",
    "workgroup_cycles",
    "launch_cycles",
    "dispatch",
    "KernelTiming",
    "time_kernel",
]

#: Cost of one work-group barrier (drain + re-issue of resident wavefronts).
BARRIER_CYCLES = 40.0

#: Per-work-group dispatch/teardown cost on the device.
WG_DISPATCH_CYCLES = 600.0


def workgroup_cycles(
    device: DeviceSpec, workgroups: WorkGroups, latency_efficiency: float
) -> np.ndarray:
    """Engine cycles each work-group occupies its compute unit for.

    Compute and global-memory streams overlap (the CU hides whichever is
    shorter), barriers and reductions serialise, and every group pays a
    fixed dispatch cost: ``max(compute, mem) + sync + red +
    WG_DISPATCH_CYCLES``, each term an array expression in which the
    int64 columns convert exactly to float64, as the scalar formula's
    Python ints did.
    """
    if not 0.0 < latency_efficiency <= 1.0:
        raise ConfigurationError(
            f"latency_efficiency must be in (0, 1], got {latency_efficiency}"
        )
    wg = workgroups
    compute = wg.issued_interactions / device.interactions_per_cycle_per_cu
    compute /= latency_efficiency
    mem = wg.global_bytes / device.global_bytes_per_cycle_per_cu
    sync = wg.barriers * BARRIER_CYCLES
    # reductions retire one op per stream core per interaction-equivalent slot
    red = (
        wg.reduction_ops * device.interaction_cycles / device.stream_cores_per_cu / 4.0
    )
    return np.maximum(compute, mem) + sync + red + WG_DISPATCH_CYCLES


def launch_cycles(
    device: DeviceSpec, launch: KernelLaunch
) -> tuple[OccupancyInfo, np.ndarray]:
    """The launch's occupancy and each work-group's cycles on ``device``."""
    launch.validate_on(device)
    occ = kernel_occupancy(
        device,
        wg_size=launch.wg_size,
        n_workgroups=launch.n_workgroups,
        lds_bytes_per_wg=launch.max_lds_bytes,
    )
    return occ, workgroup_cycles(device, launch.workgroups, occ.latency_efficiency)


def dispatch(
    costs: np.ndarray, n_workers: int, policy: str = "dynamic"
) -> tuple[np.ndarray, np.ndarray]:
    """Each item's worker and start time, items taken in submission order.

    ``"dynamic"`` gives each item to the earliest-free worker (the lowest
    index on a tie): the hardware's work-group dispatcher and the jw
    plan's walk queue.  ``"static"`` pre-assigns item ``k`` to worker
    ``k % n_workers``: w-parallel's fixed walk-to-block binding, whose
    skewed work piles onto unlucky workers.  Item ``k`` ends at
    ``start[k] + costs[k]``; the makespan is the latest end.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    costs = np.asarray(costs, dtype=np.float64)
    if np.any(costs < 0):
        raise ConfigurationError("costs must be non-negative")
    workers: list[int] = []
    starts: list[float] = []
    if policy == "dynamic":
        free = [(0.0, w) for w in range(n_workers)]  # already a heap
        for c in costs.tolist():
            t, w = free[0]
            workers.append(w)
            starts.append(t)
            heapq.heapreplace(free, (t + c, w))
    elif policy == "static":
        free_at = [0.0] * n_workers
        for k, c in enumerate(costs.tolist()):
            w = k % n_workers
            workers.append(w)
            starts.append(free_at[w])
            free_at[w] += c
    else:
        raise ConfigurationError(f"unknown policy '{policy}'")
    return np.array(workers, dtype=np.int64), np.array(starts, dtype=np.float64)


@dataclass(frozen=True)
class KernelTiming:
    """Result of timing one kernel launch."""

    name: str
    seconds: float
    makespan_cycles: float
    occupancy: OccupancyInfo
    n_workgroups: int
    total_interactions: int
    total_issued_interactions: int
    cu_busy_fraction: float


def time_kernel(
    device: DeviceSpec,
    launch: KernelLaunch,
    *,
    schedule: str = "hardware",
    include_launch_overhead: bool = True,
) -> KernelTiming:
    """Simulate the execution time of ``launch`` on ``device``.

    Parameters
    ----------
    schedule:
        ``"hardware"`` — greedy earliest-free-CU dispatch (real GPUs, and
        the jw plan's dynamic walk queue); ``"static"`` — round-robin
        pre-assignment (the ablation contrast).
    """
    if schedule not in ("hardware", "static"):
        raise ConfigurationError(f"unknown schedule '{schedule}'")
    occ, costs = launch_cycles(device, launch)
    policy = "dynamic" if schedule == "hardware" else "static"
    cu, start = dispatch(costs, device.compute_units, policy)
    makespan = float((start + costs).max(initial=0.0))
    busy = np.bincount(cu, weights=costs, minlength=device.compute_units)
    seconds = device.seconds(makespan)
    if include_launch_overhead:
        seconds += device.kernel_launch_overhead_s
    busy_fraction = (
        float(busy.sum() / (makespan * device.compute_units)) if makespan > 0 else 0.0
    )
    if obs.enabled:
        obs.inc("kernel_launches_total")
        obs.inc("launch_interactions_total", launch.total_interactions)
        obs.observe("launch_seconds", seconds)
        obs.set_gauge("occupancy", occ.latency_efficiency)
        obs.set_gauge("cu_busy_fraction", busy_fraction)
        obs.instant(
            "kernel_timed",
            kernel=launch.name,
            seconds=seconds,
            n_workgroups=launch.n_workgroups,
            schedule=schedule,
            occupancy=occ.latency_efficiency,
        )
    return KernelTiming(
        name=launch.name,
        seconds=seconds,
        makespan_cycles=float(makespan),
        occupancy=occ,
        n_workgroups=launch.n_workgroups,
        total_interactions=launch.total_interactions,
        total_issued_interactions=launch.total_issued_interactions,
        cu_busy_fraction=busy_fraction,
    )
