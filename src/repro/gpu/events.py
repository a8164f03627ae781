"""Event-graph simulation of host/DMA/device command streams.

This is the one model of the PTPM *time axis*: commands (host walk
generation, PCIe uploads, kernel launches, downloads) run on named serial
resources and may depend on each other; :meth:`EventGraph.simulate`
computes every command's start/end and the makespan.

The jw plan's overlapped pass is :meth:`EventGraph.pipelined_step`, a
host -> DMA -> GPU chain per walk batch; the same graph also expresses
schedules a fixed chain cannot (multi-device fan-out, downloads racing
uploads, priority inversions), which the what-if examples use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["Command", "CommandRecord", "EventGraph"]


@dataclass(frozen=True)
class Command:
    """One unit of work on a serial resource.

    ``deps`` are command ids that must complete before this one may start
    (in addition to the implicit in-order constraint of its resource).
    """

    resource: str
    duration: float
    label: str = ""
    deps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {self.duration}")
        if not self.resource:
            raise ConfigurationError("resource name must be non-empty")


@dataclass(frozen=True)
class CommandRecord:
    """Simulated execution window of one command."""

    command: Command
    start: float
    end: float


@dataclass
class EventGraph:
    """A DAG of commands over serial resources, simulated in submission order.

    Commands on the same resource execute in the order they were
    submitted (an in-order queue, as OpenCL 1.0 provides); cross-resource
    ordering comes only from explicit ``deps``.
    """

    commands: list[Command] = field(default_factory=list)

    def submit(
        self,
        resource: str,
        duration: float,
        *,
        label: str = "",
        deps: tuple[int, ...] | list[int] = (),
    ) -> int:
        """Append a command; returns its id for use in later ``deps``."""
        cmd = Command(resource, duration, label, tuple(deps))
        for d in cmd.deps:
            if not 0 <= d < len(self.commands):
                raise ConfigurationError(
                    f"dependency {d} refers to a command not yet submitted"
                )
        self.commands.append(cmd)
        return len(self.commands) - 1

    def simulate(self) -> list[CommandRecord]:
        """Execute the graph; returns per-command records in submission order.

        Because dependencies may only point backwards (enforced at
        submission), a single pass resolves all start times.  With
        :mod:`repro.obs` tracing on, each call also records every command
        on the simulated timeline from the current simulated clock, one
        lane (``pipe.<resource>``) per resource.
        """
        records: list[CommandRecord] = []
        resource_free: dict[str, float] = {}
        for cmd in self.commands:
            ready = resource_free.get(cmd.resource, 0.0)
            for d in cmd.deps:
                ready = max(ready, records[d].end)
            records.append(CommandRecord(cmd, ready, ready + cmd.duration))
            resource_free[cmd.resource] = ready + cmd.duration
        if obs.enabled:
            base = obs.sim_now()
            for r in records:
                obs.sim_span(
                    r.command.label or r.command.resource,
                    base + r.start,
                    base + r.end,
                    track=f"pipe.{r.command.resource}",
                )
        return records

    def makespan(self) -> float:
        """Completion time of the last-finishing command."""
        records = self.simulate()
        return max((r.end for r in records), default=0.0)

    def resource_busy(self) -> dict[str, float]:
        """Total busy time per resource."""
        busy: dict[str, float] = {}
        for r in self.simulate():
            busy[r.command.resource] = busy.get(r.command.resource, 0.0) + (
                r.end - r.start
            )
        return busy

    # ------------------------------------------------------------------
    # canonical schedules
    # ------------------------------------------------------------------
    @classmethod
    def pipelined_step(
        cls,
        host_batches: list[float],
        upload_batches: list[float],
        kernel_batches: list[float],
        *,
        n_devices: int = 1,
    ) -> "EventGraph":
        """The jw step as an event graph: host -> dma -> gpu per batch.

        With ``n_devices > 1``, batches round-robin across per-device DMA
        and compute resources (one host feeds them all).
        """
        if not (len(host_batches) == len(upload_batches) == len(kernel_batches)):
            raise ConfigurationError("all stages need the same batch count")
        if n_devices < 1:
            raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
        g = cls()
        for i, (h, u, k) in enumerate(
            zip(host_batches, upload_batches, kernel_batches)
        ):
            dev = i % n_devices
            hid = g.submit("host", h, label=f"walks{i}")
            uid = g.submit(f"dma{dev}", u, label=f"upload{i}", deps=(hid,))
            g.submit(f"gpu{dev}", k, label=f"kernel{i}", deps=(uid,))
        return g
