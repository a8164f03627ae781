"""Parameter-sweep runner producing the rows the experiments format.

Sweeps run the *timing* path of each plan (work enumeration + simulated
device timing), which is exact with respect to the interaction lists and
cheap enough to sweep to N = 131072; the functional (arithmetic) path is
exercised by the test suite and the accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro import obs
from repro.bench.workloads import make_workload
from repro.core.plans import PlanConfig, plan_by_name
from repro.nbody.flops import FLOPS_PER_INTERACTION_RSQRT
from repro.perfmodel.metrics import gflops_rate

__all__ = [
    "SweepRow",
    "run_sweep",
    "run_plan_point",
]

#: Steps per run in the paper's tables ("100 步").
PAPER_N_STEPS = 100


@dataclass
class SweepRow:
    """One (plan, N) point of a sweep, scaled to ``n_steps`` steps."""

    plan: str
    n_bodies: int
    n_steps: int
    kernel_seconds: float
    host_seconds: float
    transfer_seconds: float
    total_seconds: float
    interactions: int
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def kernel_gflops(self) -> float:
        """Device-kernel GFLOPS (20-flop convention)."""
        return gflops_rate(self.interactions, self.kernel_seconds)

    @property
    def kernel_gflops_rsqrt(self) -> float:
        """Device-kernel GFLOPS (38-flop convention)."""
        return gflops_rate(
            self.interactions, self.kernel_seconds, FLOPS_PER_INTERACTION_RSQRT
        )

    @property
    def effective_gflops(self) -> float:
        """GFLOPS over the total (host + transfer inclusive) time."""
        return gflops_rate(self.interactions, self.total_seconds)


def run_plan_point(
    plan_name: str,
    n: int,
    *,
    workload: str = "plummer",
    config: PlanConfig | None = None,
    n_steps: int = PAPER_N_STEPS,
    seed: int = 0,
    **plan_kwargs: Any,
) -> SweepRow:
    """Time one plan at one N (scaled to ``n_steps`` steps)."""
    with obs.span("bench.point", plan=plan_name, n=n, workload=workload) as sp:
        particles = make_workload(workload, n, seed=seed)
        plan = plan_by_name(plan_name, config)
        for key, value in plan_kwargs.items():
            if not hasattr(plan, key):
                raise AttributeError(f"plan '{plan_name}' has no option '{key}'")
            setattr(plan, key, value)
        step = plan.step_breakdown(particles.positions, particles.masses)
        if obs.enabled:
            t0 = obs.sim_now()
            obs.sim_span(
                "kernel", t0, t0 + step.kernel_seconds, track="device", plan=plan_name, n=n
            )
            obs.sim_span(
                "host", t0, t0 + step.host_seconds, track="host", plan=plan_name, n=n
            )
            obs.sim_span(
                "transfer", t0, t0 + step.transfer_seconds, track="pcie",
                plan=plan_name, n=n,
            )
            obs.advance_sim(step.total_seconds)
            obs.inc("interactions_total", step.interactions)
            obs.observe("step_seconds", step.total_seconds)
            obs.set_gauge("gflops", step.kernel_gflops())
            sp.set(
                kernel_seconds=step.kernel_seconds,
                total_seconds=step.total_seconds,
                interactions=step.interactions,
            )
    return SweepRow(
        plan=plan_name,
        n_bodies=n,
        n_steps=n_steps,
        kernel_seconds=n_steps * step.kernel_seconds,
        host_seconds=n_steps * step.host_seconds,
        transfer_seconds=n_steps * step.transfer_seconds,
        total_seconds=n_steps * step.total_seconds,
        interactions=n_steps * step.interactions,
        meta=dict(step.meta),
    )


def run_sweep(
    plan_names: Sequence[str],
    n_values: Iterable[int],
    *,
    workload: str = "plummer",
    config: PlanConfig | None = None,
    n_steps: int = PAPER_N_STEPS,
    seed: int = 0,
) -> list[SweepRow]:
    """Sweep several plans over several N; rows ordered (N, plan)."""
    rows: list[SweepRow] = []
    with obs.span(
        "bench.sweep",
        plans=",".join(plan_names),
        n_values=",".join(str(n) for n in n_values),
        workload=workload,
    ):
        for n in n_values:
            for name in plan_names:
                rows.append(
                    run_plan_point(
                        name,
                        n,
                        workload=workload,
                        config=config,
                        n_steps=n_steps,
                        seed=seed,
                    )
                )
    return rows
