"""Throughput metrics and the device calibration.

The one cost model is the simulated HD 5850 (:mod:`repro.gpu.timing`,
:mod:`repro.gpu.events`); this package turns its seconds into the
paper's GFLOPS and speedup figures and records how the device's
``interaction_cycles`` was fitted to the paper's sustained rate.
"""

from repro.perfmodel.metrics import gflops_rate, speedup
from repro.perfmodel.calibration import (
    PAPER_CPU_SPEEDUP,
    PAPER_GPU_SPEEDUP_RANGE,
    PAPER_PEAK_GFLOPS_RSQRT,
    PAPER_SUSTAINED_GFLOPS,
    calibrate_interaction_cycles,
    expected_cpu_speedup,
    sustained_gflops,
)

__all__ = [
    "gflops_rate",
    "speedup",
    "PAPER_CPU_SPEEDUP",
    "PAPER_GPU_SPEEDUP_RANGE",
    "PAPER_PEAK_GFLOPS_RSQRT",
    "PAPER_SUSTAINED_GFLOPS",
    "calibrate_interaction_cycles",
    "expected_cpu_speedup",
    "sustained_gflops",
]
