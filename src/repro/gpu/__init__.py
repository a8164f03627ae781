"""Simulated SIMT GPU substrate.

Replaces the paper's AMD Radeon HD 5850 with a parameterised device
model: per-work-group work accounting (:mod:`repro.gpu.kernel`) and a
calibrated timing engine (occupancy, divergence, memory, scheduling).
The device kernels' float32 arithmetic is not here: the plans run it
through :func:`repro.nbody.forces.accelerations_from_sources` with the
work-group size as the tile width, on the configured kernel backend.
"""

from repro.gpu.device import RADEON_HD_5850, DeviceSpec, multi_device, scaled_device
from repro.gpu.wavefront import active_wavefronts
from repro.gpu.memory import (
    BYTES_PER_ACCEL,
    BYTES_PER_BODY,
    TransferLog,
    body_transfer_time,
    check_lds_fit,
    lds_tile_capacity,
    transfer_time,
)
from repro.gpu.occupancy import OccupancyInfo, kernel_occupancy
from repro.gpu.launch import KernelLaunch, NDRange, WorkGroups
from repro.gpu.kernel import (
    packed_tile_loop_work,
    reduction_work,
    tile_loop_work,
)
from repro.gpu.events import Command, CommandRecord, EventGraph
from repro.gpu.trace import ExecutionTrace, Interval, trace_costs, trace_launch
from repro.gpu.timing import (
    BARRIER_CYCLES,
    WG_DISPATCH_CYCLES,
    KernelTiming,
    dispatch,
    launch_cycles,
    time_kernel,
    workgroup_cycles,
)

__all__ = [
    "RADEON_HD_5850",
    "DeviceSpec",
    "scaled_device",
    "multi_device",
    "active_wavefronts",
    "BYTES_PER_ACCEL",
    "BYTES_PER_BODY",
    "TransferLog",
    "body_transfer_time",
    "check_lds_fit",
    "lds_tile_capacity",
    "transfer_time",
    "OccupancyInfo",
    "kernel_occupancy",
    "KernelLaunch",
    "NDRange",
    "WorkGroups",
    "packed_tile_loop_work",
    "reduction_work",
    "tile_loop_work",
    "Command",
    "CommandRecord",
    "EventGraph",
    "ExecutionTrace",
    "Interval",
    "trace_costs",
    "trace_launch",
    "BARRIER_CYCLES",
    "WG_DISPATCH_CYCLES",
    "KernelTiming",
    "dispatch",
    "launch_cycles",
    "time_kernel",
    "workgroup_cycles",
]
