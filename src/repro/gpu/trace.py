"""Execution traces: per-compute-unit timelines of a kernel launch.

Where :mod:`repro.gpu.timing` reports a single makespan, this module
records *when each work-group ran on which compute unit* and renders the
timeline as an ASCII Gantt chart — which makes load imbalance (the static
w-parallel tail vs the jw dynamic queue) directly visible instead of just
aggregated into a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec
from repro.gpu.launch import KernelLaunch
from repro.gpu.timing import dispatch, launch_cycles

__all__ = ["Interval", "ExecutionTrace", "trace_costs", "trace_launch"]


@dataclass(frozen=True)
class Interval:
    """One work item's execution window on one worker."""

    worker: int
    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """A scheduled timeline across ``n_workers`` workers."""

    intervals: list[Interval]
    n_workers: int

    @property
    def makespan(self) -> float:
        """Completion time of the last item."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def worker_busy(self) -> np.ndarray:
        """Total busy time per worker."""
        busy = np.zeros(self.n_workers)
        for iv in self.intervals:
            busy[iv.worker] += iv.duration
        return busy

    @property
    def utilization(self) -> float:
        """Busy time over (makespan x workers)."""
        ms = self.makespan
        if ms == 0.0:
            return 1.0
        return float(self.worker_busy().sum() / (ms * self.n_workers))

    def emit_obs(
        self,
        *,
        seconds_per_unit: float = 1.0,
        base: float | None = None,
        track_prefix: str = "CU",
        **attrs,
    ) -> int:
        """Emit every interval onto the :mod:`repro.obs` simulated timeline.

        Each worker becomes one trace track (``CU00``, ``CU01``, ...), so a
        Chrome-trace viewer shows the same per-compute-unit picture as
        :meth:`gantt` — the PTPM space axis.  ``seconds_per_unit`` converts
        the trace's cost unit (cycles, interactions) to simulated seconds;
        ``base`` is the timeline offset (defaults to the current simulated
        clock).  Returns the number of intervals emitted (0 when tracing is
        disabled).
        """
        if not obs.enabled:
            return 0
        t0 = obs.sim_now() if base is None else base
        for iv in self.intervals:
            obs.sim_span(
                iv.label,
                t0 + iv.start * seconds_per_unit,
                t0 + iv.end * seconds_per_unit,
                track=f"{track_prefix}{iv.worker:02d}",
                **attrs,
            )
        return len(self.intervals)

    def gantt(self, *, width: int = 72) -> str:
        """ASCII Gantt chart: one row per worker, '#' = busy, '.' = idle."""
        if width < 10:
            raise ConfigurationError(f"width must be >= 10, got {width}")
        ms = self.makespan
        lines = []
        for w in range(self.n_workers):
            row = ["."] * width
            for iv in self.intervals:
                if iv.worker != w or ms == 0.0:
                    continue
                a = int(iv.start / ms * (width - 1))
                b = max(a + 1, int(np.ceil(iv.end / ms * (width - 1))))
                for c in range(a, min(b, width)):
                    row[c] = "#"
            lines.append(f"CU{w:02d} |{''.join(row)}|")
        lines.append(
            f"      makespan = {ms:.3g}, utilization = {self.utilization:.1%}"
        )
        return "\n".join(lines)


def trace_costs(
    costs: np.ndarray,
    n_workers: int,
    *,
    labels: list[str] | None = None,
    policy: str = "dynamic",
) -> ExecutionTrace:
    """Schedule item costs onto workers, recording the timeline.

    ``policy``: ``"dynamic"`` (earliest-free worker, FIFO — hardware
    dispatch / jw queue) or ``"static"`` (round-robin pre-assignment);
    see :func:`~repro.gpu.timing.dispatch`.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if labels is None:
        labels = [f"item{k}" for k in range(costs.size)]
    if len(labels) != costs.size:
        raise ConfigurationError("labels length must match costs")
    workers, starts = dispatch(costs, n_workers, policy)
    intervals = [
        Interval(w, t, t + c, lab)
        for w, t, c, lab in zip(workers.tolist(), starts.tolist(), costs.tolist(), labels)
    ]
    return ExecutionTrace(intervals, n_workers)


def trace_launch(
    device: DeviceSpec, launch: KernelLaunch, *, schedule: str = "hardware"
) -> ExecutionTrace:
    """Timeline (in engine cycles) of a kernel launch on ``device``, each
    interval named by the launch's work-group labels."""
    if schedule not in ("hardware", "static"):
        raise ConfigurationError(f"unknown schedule '{schedule}'")
    _, costs = launch_cycles(device, launch)
    labels = launch.labels()
    policy = "dynamic" if schedule == "hardware" else "static"
    return trace_costs(costs, device.compute_units, labels=labels, policy=policy)
