"""Occupancy model: resident wavefronts and latency-hiding efficiency.

A compute unit hides memory and pipeline latency by multiplexing resident
wavefronts; with fewer than ``device.latency_hiding_wavefronts`` residents
its issue rate degrades proportionally.  Occupancy is limited by the
work-group geometry (wavefronts per work-group), by LDS usage, and — the
effect at the heart of the paper's small-N analysis — by simply not having
enough work-groups to fill the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DeviceError
from repro.gpu.device import DeviceSpec

__all__ = ["OccupancyInfo", "kernel_occupancy"]

#: Hardware cap on simultaneously-resident work-groups per CU.
MAX_WORKGROUPS_PER_CU = 8


@dataclass(frozen=True)
class OccupancyInfo:
    """Occupancy of one kernel launch on one device.

    ``latency_efficiency`` is the throughput multiplier (<= 1) the timing
    engine applies to compute cycles; ``cu_utilization`` is the fraction
    of CUs that receive any work at all.
    """

    wavefronts_per_workgroup: int
    workgroups_per_cu_limit: int
    resident_wavefronts: int
    latency_efficiency: float
    cu_utilization: float


def kernel_occupancy(
    device: DeviceSpec,
    *,
    wg_size: int,
    n_workgroups: int,
    lds_bytes_per_wg: int = 0,
) -> OccupancyInfo:
    """Occupancy of a launch of ``n_workgroups`` groups of ``wg_size`` items.

    Raises :class:`DeviceError` for unlaunchable geometry.
    """
    device.validate_workgroup(wg_size)
    if n_workgroups < 1:
        raise DeviceError(f"n_workgroups must be >= 1, got {n_workgroups}")
    if lds_bytes_per_wg < 0:
        raise DeviceError(f"lds_bytes_per_wg must be >= 0, got {lds_bytes_per_wg}")
    if lds_bytes_per_wg > device.lds_bytes_per_cu:
        raise DeviceError(
            f"work-group LDS usage {lds_bytes_per_wg} B exceeds per-CU capacity"
        )

    wf_per_wg = math.ceil(wg_size / device.wavefront_size)
    limit = min(
        MAX_WORKGROUPS_PER_CU,
        device.max_wavefronts_per_cu // wf_per_wg,
    )
    if lds_bytes_per_wg > 0:
        limit = min(limit, device.lds_bytes_per_cu // lds_bytes_per_wg)
    limit = max(limit, 1)

    # How many work-groups can actually sit on one CU given the launch size:
    # with fewer groups than CUs, busy CUs hold exactly one.
    avg_per_cu = n_workgroups / device.compute_units
    resident_wgs = max(1, min(limit, math.floor(avg_per_cu)))
    resident_wf = resident_wgs * wf_per_wg

    latency_eff = min(1.0, resident_wf / device.latency_hiding_wavefronts)
    cu_util = min(1.0, n_workgroups / device.compute_units)
    return OccupancyInfo(
        wavefronts_per_workgroup=wf_per_wg,
        workgroups_per_cu_limit=limit,
        resident_wavefronts=resident_wf,
        latency_efficiency=latency_eff,
        cu_utilization=cu_util,
    )
