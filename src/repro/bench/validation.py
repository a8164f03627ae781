"""Cross-validation harness: every plan against the oracle, every workload.

The reproduction's correctness story in one sweep: for each (plan,
workload) cell, forces from the simulated device kernels are compared
against float64 direct summation and classified against the method's
expected tolerance (float32 round-off for PP plans, Barnes-Hut truncation
for tree plans).  Exposed as the ``val-accuracy`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.tables import format_table
from repro.bench.workloads import make_workload
from repro.core.plans import PlanConfig, get_plan
from repro.nbody.forces import direct_forces
from repro.tree.bh_force import rms_relative_error

__all__ = ["ValidationCell", "accuracy_matrix", "render_accuracy_matrix"]

#: Expected RMS tolerance per method.
TOLERANCES = {"pp": 1e-4, "bh": 2e-2}


@dataclass(frozen=True)
class ValidationCell:
    """One (plan, workload) validation outcome."""

    plan: str
    workload: str
    n_bodies: int
    rms_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """Whether the measured error is within the method's tolerance."""
        return self.rms_error <= self.tolerance


def accuracy_matrix(
    *,
    plans: Sequence[str] = ("i", "j", "w", "jw"),
    workloads: Sequence[str] = ("plummer", "uniform", "two_clusters", "disc"),
    n: int = 1024,
    config: PlanConfig | None = None,
    seed: int = 0,
) -> list[ValidationCell]:
    """Run the full plan x workload accuracy sweep (functional kernels)."""
    config = config or PlanConfig()
    cells: list[ValidationCell] = []
    for wl in workloads:
        particles = make_workload(wl, n, seed=seed)
        ref = direct_forces(
            particles.positions,
            particles.masses,
            softening=config.softening,
            include_self=False,
        )
        for name in plans:
            plan = get_plan(name, config)
            acc = plan.accelerations(particles.positions, particles.masses)
            cells.append(
                ValidationCell(
                    plan=name,
                    workload=wl,
                    n_bodies=n,
                    rms_error=rms_relative_error(acc, ref),
                    tolerance=TOLERANCES[plan.method],
                )
            )
    return cells


def render_accuracy_matrix(cells: Sequence[ValidationCell]) -> str:
    """Format the validation sweep as a plan x workload table."""
    plans = sorted({c.plan for c in cells})
    workloads = sorted({c.workload for c in cells})
    by_key = {(c.plan, c.workload): c for c in cells}
    rows = []
    for p in plans:
        row = [p]
        for w in workloads:
            c = by_key[(p, w)]
            mark = "ok" if c.passed else "FAIL"
            row.append(f"{c.rms_error:.1e} {mark}")
        rows.append(row)
    n = cells[0].n_bodies if cells else 0
    return format_table(
        f"Validation — RMS force error vs float64 direct summation (N={n:,})",
        ["plan"] + list(workloads),
        rows,
        notes=[
            "pp plans: float32 round-off tolerance 1e-4; "
            "bh plans: truncation tolerance 2e-2",
        ],
    )
