"""Kernel-launch descriptions: NDRange geometry and per-work-group work.

A :class:`KernelLaunch` is the interface between the plans (which know how
to enumerate work) and the timing engine (which knows how long work takes).
Its :class:`WorkGroups` record the *actual* work each work-group performs,
one int64 column per quantity — derived from the same interaction lists
the functional kernels evaluate, so timing and physics always describe the
same computation, and a launch of a thousand work-groups is a handful of
array expressions rather than a thousand records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import LaunchError
from repro.gpu.device import DeviceSpec

__all__ = ["NDRange", "WorkGroups", "KernelLaunch"]


@dataclass(frozen=True)
class NDRange:
    """OpenCL-style 1-D launch geometry."""

    global_size: int
    local_size: int

    def __post_init__(self) -> None:
        if self.local_size < 1:
            raise LaunchError(f"local_size must be >= 1, got {self.local_size}")
        if self.global_size < 1:
            raise LaunchError(f"global_size must be >= 1, got {self.global_size}")
        if self.global_size % self.local_size != 0:
            raise LaunchError(
                f"global_size {self.global_size} not a multiple of "
                f"local_size {self.local_size}"
            )

    @property
    def n_workgroups(self) -> int:
        """Number of work-groups in the launch."""
        return self.global_size // self.local_size

    def validate_on(self, device: DeviceSpec) -> None:
        """Check the geometry is launchable on ``device``."""
        device.validate_workgroup(self.local_size)


#: The int64 columns of :class:`WorkGroups`, one value per work-group.
_FIELDS = (
    "interactions",
    "issued_interactions",
    "active_threads",
    "tiles",
    "global_bytes",
    "lds_bytes_peak",
    "barriers",
    "reduction_ops",
)


class WorkGroups:
    """Work performed by each work-group of a launch, as int64 columns.

    Row ``k`` of every column describes work-group ``k``; there is one
    work-group per entry of ``active_threads``, and a column given as a
    scalar holds that value for every group.  ``interactions`` counts
    useful body-source evaluations; ``issued_interactions`` additionally
    includes SIMT padding (idle lanes in partially-filled wavefronts,
    divergence serialisation) and is what compute time is charged on.
    ``issued_interactions >= interactions``.
    """

    __slots__ = _FIELDS

    def __init__(
        self,
        *,
        interactions,
        issued_interactions,
        active_threads,
        tiles=0,
        global_bytes=0,
        lds_bytes_peak=0,
        barriers=0,
        reduction_ops=0,
    ) -> None:
        active = np.asarray(active_threads, dtype=np.int64)
        if active.ndim != 1:
            raise LaunchError("active_threads must hold one entry per work-group")
        n = active.shape[0]
        values = (
            interactions, issued_interactions, active, tiles,
            global_bytes, lds_bytes_peak, barriers, reduction_ops,
        )
        for name, value in zip(_FIELDS, values):
            column = np.asarray(value, dtype=np.int64)
            if column.ndim == 0:
                column = np.full(n, column)
            elif column.shape != (n,):
                raise LaunchError(f"{name} has {column.shape} entries for {n} work-groups")
            setattr(self, name, column)
        if n and (self.interactions.min() < 0 or (self.issued_interactions < self.interactions).any()):
            k = int(np.flatnonzero(
                (self.interactions < 0) | (self.issued_interactions < self.interactions)
            )[0])
            raise LaunchError(
                f"work-group {k}: issued_interactions ({self.issued_interactions[k]}) "
                f"must be >= interactions ({self.interactions[k]}) >= 0"
            )
        if n and active.min() < 1:
            raise LaunchError("a work-group must have at least one active thread")

    def __len__(self) -> int:
        return self.interactions.shape[0]

    def padding_fraction(self) -> np.ndarray:
        """Fraction of each group's issued work that is SIMT padding (0 = perfectly packed)."""
        issued = self.issued_interactions
        frac = np.zeros(issued.shape)
        busy = issued > 0
        frac[busy] = 1.0 - self.interactions[busy] / issued[busy]
        return frac


class KernelLaunch:
    """One kernel dispatch: geometry plus its work-groups' work.

    ``labels``, when given, makes the work-groups' trace labels on
    demand (:func:`~repro.gpu.trace.trace_launch` is the one reader);
    by default work-group ``k`` is ``wg{k}``.
    """

    def __init__(
        self,
        name: str,
        wg_size: int,
        workgroups: WorkGroups,
        labels: Callable[[], list[str]] | None = None,
    ) -> None:
        self.name = name
        self.wg_size = wg_size
        self.workgroups = workgroups
        self._labels = labels
        if wg_size < 1:
            raise LaunchError(f"wg_size must be >= 1, got {wg_size}")
        if not len(workgroups):
            raise LaunchError(f"kernel '{name}' has no work-groups")
        if workgroups.active_threads.max() > wg_size:
            k = int(np.flatnonzero(workgroups.active_threads > wg_size)[0])
            raise LaunchError(
                f"work-group '{self.labels()[k]}' has "
                f"{workgroups.active_threads[k]} active threads but wg_size is {wg_size}"
            )
        if obs.enabled:
            obs.instant(
                "kernel_launch",
                kernel=name,
                wg_size=wg_size,
                n_workgroups=self.n_workgroups,
                interactions=self.total_interactions,
                issued_interactions=self.total_issued_interactions,
            )

    def labels(self) -> list[str]:
        """One trace label per work-group, in order."""
        if self._labels is None:
            return [f"wg{k}" for k in range(self.n_workgroups)]
        return self._labels()

    @property
    def n_workgroups(self) -> int:
        """Number of work-groups in this launch."""
        return len(self.workgroups)

    @cached_property
    def total_interactions(self) -> int:
        """Useful interactions across all work-groups."""
        return int(self.workgroups.interactions.sum())

    @cached_property
    def total_issued_interactions(self) -> int:
        """Issued (padding-inclusive) interactions across all work-groups."""
        return int(self.workgroups.issued_interactions.sum())

    @cached_property
    def max_lds_bytes(self) -> int:
        """Peak per-work-group LDS usage (occupancy input)."""
        return int(self.workgroups.lds_bytes_peak.max())

    def validate_on(self, device: DeviceSpec) -> None:
        """Check geometry and LDS usage against device limits."""
        device.validate_workgroup(self.wg_size)
        if self.max_lds_bytes > device.lds_bytes_per_cu:
            raise LaunchError(
                f"kernel '{self.name}' needs {self.max_lds_bytes} B LDS per "
                f"work-group; {device.name} has {device.lds_bytes_per_cu} B"
            )
