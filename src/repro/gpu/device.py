"""Device specifications for the simulated GPU.

The paper's testbed GPU is an AMD Radeon HD 5850 ("Cypress Pro"): 18
compute units (SIMD engines) x 16 stream cores x 5 VLIW ALUs = 1440 ALUs
at 725 MHz, i.e. 2.088 TFLOPS single-precision peak (multiply-add), with
32 KiB of local data share (LDS) per compute unit and 64-wide wavefronts.

:class:`DeviceSpec` captures the architectural parameters that the timing
engine (:mod:`repro.gpu.timing`) needs; the N-body-specific throughput
calibration (cycles per body-body interaction per stream core) is
documented in :mod:`repro.perfmodel.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import DeviceError

__all__ = ["DeviceSpec", "RADEON_HD_5850", "scaled_device", "multi_device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural description of a simulated SIMT GPU.

    Parameters
    ----------
    compute_units:
        Number of independent SIMD engines work-groups are scheduled onto.
    stream_cores_per_cu:
        Physical lanes per compute unit (a 64-wide wavefront issues over
        ``wavefront_size / stream_cores_per_cu`` clocks).
    vliw_width:
        ALUs per stream core (5 on Cypress); enters peak-flops accounting.
    wavefront_size:
        Work-items that execute in lock-step (64 on AMD).
    clock_hz:
        Engine clock.
    max_workgroup_size:
        Largest launchable work-group (256 under OpenCL on Evergreen).
    lds_bytes_per_cu:
        Local data share capacity; tiles staged per work-group must fit.
    max_wavefronts_per_cu:
        Resident-wavefront limit, bounding latency-hiding concurrency.
    latency_hiding_wavefronts:
        Resident wavefronts per CU needed to fully hide memory/pipeline
        latency; fewer residents scale throughput down proportionally.
    interaction_cycles:
        Calibrated cycles one stream core spends per body-body interaction
        in the inner force loop (VLIW packing, rsqrt and loop overhead
        folded in).  This single number sets the device's sustained
        N-body rate; see ``perfmodel.calibration``.
    global_bandwidth_bytes_s:
        Off-chip memory bandwidth.
    kernel_launch_overhead_s:
        Fixed host-side cost per kernel dispatch.
    pcie_bandwidth_bytes_s / pcie_latency_s:
        Host <-> device transfer model.
    """

    name: str
    compute_units: int
    stream_cores_per_cu: int
    vliw_width: int
    wavefront_size: int
    clock_hz: float
    max_workgroup_size: int
    lds_bytes_per_cu: int
    max_wavefronts_per_cu: int
    latency_hiding_wavefronts: int
    interaction_cycles: float
    global_bandwidth_bytes_s: float
    kernel_launch_overhead_s: float
    pcie_bandwidth_bytes_s: float
    pcie_latency_s: float

    def __post_init__(self) -> None:
        positive = {
            "compute_units": self.compute_units,
            "stream_cores_per_cu": self.stream_cores_per_cu,
            "vliw_width": self.vliw_width,
            "wavefront_size": self.wavefront_size,
            "clock_hz": self.clock_hz,
            "max_workgroup_size": self.max_workgroup_size,
            "lds_bytes_per_cu": self.lds_bytes_per_cu,
            "max_wavefronts_per_cu": self.max_wavefronts_per_cu,
            "latency_hiding_wavefronts": self.latency_hiding_wavefronts,
            "interaction_cycles": self.interaction_cycles,
            "global_bandwidth_bytes_s": self.global_bandwidth_bytes_s,
            "pcie_bandwidth_bytes_s": self.pcie_bandwidth_bytes_s,
        }
        for field_name, value in positive.items():
            if value <= 0:
                raise DeviceError(f"{field_name} must be positive, got {value}")
        if self.kernel_launch_overhead_s < 0 or self.pcie_latency_s < 0:
            raise DeviceError("overheads must be non-negative")
        if self.wavefront_size % self.stream_cores_per_cu != 0:
            raise DeviceError(
                "wavefront_size must be a multiple of stream_cores_per_cu"
            )
        if self.max_workgroup_size % self.wavefront_size != 0:
            raise DeviceError(
                "max_workgroup_size must be a multiple of wavefront_size"
            )

    # ------------------------------------------------------------------
    @property
    def total_alus(self) -> int:
        """Total VLIW ALUs (1440 on the HD 5850)."""
        return self.compute_units * self.stream_cores_per_cu * self.vliw_width

    @property
    def peak_flops(self) -> float:
        """Theoretical peak (one multiply-add = 2 flops per ALU per clock)."""
        return self.total_alus * 2.0 * self.clock_hz

    @property
    def interactions_per_cycle_per_cu(self) -> float:
        """Sustained body-body interactions one CU retires per clock."""
        return self.stream_cores_per_cu / self.interaction_cycles

    @property
    def sustained_interaction_rate(self) -> float:
        """Device-wide interactions/second with all CUs busy and full occupancy."""
        return (
            self.compute_units * self.interactions_per_cycle_per_cu * self.clock_hz
        )

    @property
    def global_bytes_per_cycle_per_cu(self) -> float:
        """Per-CU share of global memory bandwidth, in bytes per clock."""
        return self.global_bandwidth_bytes_s / (self.clock_hz * self.compute_units)

    def seconds(self, cycles: float) -> float:
        """Convert engine cycles to seconds."""
        return cycles / self.clock_hz

    def validate_workgroup(self, size: int) -> None:
        """Raise :class:`DeviceError` if a work-group size is unlaunchable."""
        if size < 1 or size > self.max_workgroup_size:
            raise DeviceError(
                f"work-group size {size} outside [1, {self.max_workgroup_size}]"
                f" on {self.name}"
            )


#: The paper's testbed: AMD Radeon HD 5850 (Cypress Pro), OpenCL 1.0.
#: ``interaction_cycles`` is calibrated so the sustained all-pairs rate is
#: ~15e9 interactions/s = ~300 GFLOPS under the 20-flop convention, the
#: figure the paper reports as its sustained performance.
RADEON_HD_5850 = DeviceSpec(
    name="AMD Radeon HD 5850",
    compute_units=18,
    stream_cores_per_cu=16,
    vliw_width=5,
    wavefront_size=64,
    clock_hz=725e6,
    max_workgroup_size=256,
    lds_bytes_per_cu=32 * 1024,
    max_wavefronts_per_cu=24,
    latency_hiding_wavefronts=7,
    interaction_cycles=14.0,
    global_bandwidth_bytes_s=128e9,
    kernel_launch_overhead_s=8e-6,
    pcie_bandwidth_bytes_s=5e9,
    pcie_latency_s=15e-6,
)


def scaled_device(base: DeviceSpec, *, compute_units: int, name: str | None = None) -> DeviceSpec:
    """A copy of ``base`` with a different CU count (scaling studies)."""
    if compute_units < 1:
        raise DeviceError(f"compute_units must be >= 1, got {compute_units}")
    return replace(
        base,
        compute_units=compute_units,
        name=name or f"{base.name} x{compute_units}CU",
    )


def multi_device(base: DeviceSpec, n_devices: int) -> DeviceSpec:
    """A virtual device equivalent to ``n_devices`` copies of ``base``.

    Run the jw plan on it to model several GPUs draining one shared walk
    queue: CU count, global bandwidth and PCIe bandwidth all scale (each
    physical device owns its memory and link), while per-CU quantities
    and the single host's walk generation do not — so scaling saturates
    at the host ceiling.  The ``ext-multigpu`` experiment sweeps it.
    """
    if n_devices < 1:
        raise DeviceError(f"n_devices must be >= 1, got {n_devices}")
    return replace(
        base,
        name=f"{base.name} x{n_devices}",
        compute_units=base.compute_units * n_devices,
        global_bandwidth_bytes_s=base.global_bandwidth_bytes_s * n_devices,
        pcie_bandwidth_bytes_s=base.pcie_bandwidth_bytes_s * n_devices,
    )
