"""Performance metrics: throughput and speedup.

All throughput numbers state their flops-per-interaction convention
explicitly (see :mod:`repro.nbody.flops`) so both of the paper's headline
figures — ~300 GFLOPS sustained under the 20-flop convention and the
431 GFLOPS peak under the expanded-rsqrt convention — can be produced
from the same measurements (:class:`repro.bench.runner.SweepRow` reports
both).
"""

from __future__ import annotations

from repro.nbody.flops import DEFAULT_FLOPS_PER_INTERACTION

__all__ = ["gflops_rate", "speedup"]


def gflops_rate(
    n_interactions: int | float,
    seconds: float,
    flops_per_interaction: int = DEFAULT_FLOPS_PER_INTERACTION,
) -> float:
    """Sustained GFLOPS for ``n_interactions`` evaluated in ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    if n_interactions < 0:
        raise ValueError(f"n_interactions must be >= 0, got {n_interactions}")
    return n_interactions * flops_per_interaction / seconds / 1e9


def speedup(baseline_seconds: float, seconds: float) -> float:
    """How many times faster than the baseline (>1 means faster)."""
    if baseline_seconds <= 0.0 or seconds <= 0.0:
        raise ValueError("times must be positive")
    return baseline_seconds / seconds
