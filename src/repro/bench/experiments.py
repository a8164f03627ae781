"""Experiment registry: one entry per table/figure of the paper.

Each experiment function runs the relevant sweep, formats a paper-style
table (and an ASCII chart for the figures), and returns an
:class:`ExperimentResult` carrying both the rendered text and the raw
rows so tests can assert on the *shapes* — who wins, by what factor,
where crossovers fall.

Experiment ids:

========  ============================================================
fig4      jw-parallel GFLOPS vs N (both flop conventions)
fig5      GFLOPS of i/j/w/jw vs N
table1    CPU vs GPU(jw) running time, 100 steps
table2    total time of i/j/w/jw, 100 steps
table3    running (kernel-only) time of i/j/w/jw, 100 steps
abl-tile  work-group size ablation (jw)
abl-theta BH accuracy/time trade-off
abl-queue dynamic queue vs static walk assignment
abl-overlap host/device overlap on vs off (jw)
========  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.bench.figures import ascii_chart
from repro.bench.runner import PAPER_N_STEPS, SweepRow, run_plan_point, run_sweep
from repro.bench.tables import fmt_gflops, fmt_ratio, fmt_seconds, format_table
from repro.bench.workloads import PAPER_N_SWEEP, QUICK_N_SWEEP, make_workload
from repro.core.hostmodel import PENTIUM_E5300
from repro.core.plans import PlanConfig, get_plan
from repro.gpu.device import multi_device
from repro.gpu.trace import trace_costs
from repro.nbody.forces import direct_forces
from repro.tree.bh_force import rms_relative_error

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "SWEEP_EXPERIMENTS",
    "STEPS_EXPERIMENTS",
    "WORKLOAD_EXPERIMENTS",
    "experiment_kwargs",
    "run_experiment",
    "ALL_PLANS",
]

ALL_PLANS = ("i", "j", "w", "jw")


@dataclass
class ExperimentResult:
    """Rendered output plus raw data for one experiment."""

    exp_id: str
    title: str
    table: str
    chart: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Full printable report of the experiment."""
        parts = [self.table]
        if self.chart:
            parts.append("")
            parts.append(self.chart)
        return "\n".join(parts)


def _rows_by_plan(rows: Sequence[SweepRow]) -> dict[str, list[SweepRow]]:
    out: dict[str, list[SweepRow]] = {}
    for r in rows:
        out.setdefault(r.plan, []).append(r)
    return out


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def fig4(
    *,
    n_values: Sequence[int] = PAPER_N_SWEEP,
    workload: str = "plummer",
    config: PlanConfig | None = None,
) -> ExperimentResult:
    """Fig. 4: jw-parallel performance over the particle-count sweep."""
    rows = run_sweep(["jw"], n_values, workload=workload, config=config)
    table_rows = [
        [
            f"{r.n_bodies:,}",
            fmt_gflops(r.kernel_gflops),
            fmt_gflops(r.kernel_gflops_rsqrt),
            fmt_gflops(r.effective_gflops),
            fmt_seconds(r.kernel_seconds / r.n_steps),
        ]
        for r in rows
    ]
    table = format_table(
        "Fig. 4 — jw-parallel performance vs number of particles",
        ["N", "GFLOPS (20 flop)", "GFLOPS (38 flop)", "effective GFLOPS", "kernel/step"],
        table_rows,
        notes=[
            "paper: ~300 GFLOPS sustained (20-flop), 431 GFLOPS peak (38-flop)",
            "paper: performance already high at N=1024 thanks to the j-split",
        ],
    )
    chart = ascii_chart(
        [r.n_bodies for r in rows],
        {"jw": [r.kernel_gflops for r in rows]},
        title="jw-parallel kernel GFLOPS vs N",
        y_label="GFLOPS, 20-flop convention",
    )
    return ExperimentResult("fig4", "jw-parallel GFLOPS vs N", table, chart, {"rows": rows})


def fig5(
    *,
    n_values: Sequence[int] = PAPER_N_SWEEP,
    workload: str = "plummer",
    config: PlanConfig | None = None,
) -> ExperimentResult:
    """Fig. 5: GFLOPS of all four plans over the sweep."""
    rows = run_sweep(list(ALL_PLANS), n_values, workload=workload, config=config)
    by_plan = _rows_by_plan(rows)
    table_rows = []
    for k, n in enumerate(n_values):
        table_rows.append(
            [f"{n:,}"] + [fmt_gflops(by_plan[p][k].kernel_gflops) for p in ALL_PLANS]
        )
    table = format_table(
        "Fig. 5 — kernel GFLOPS of i/j/w/jw vs number of particles",
        ["N", "i-parallel", "j-parallel", "w-parallel", "jw-parallel"],
        table_rows,
        notes=[
            "paper: jw-parallel leads at every N, by the largest margin at small N",
            "paper: i-parallel is occupancy-starved until N is large",
        ],
    )
    chart = ascii_chart(
        list(n_values),
        {p: [r.kernel_gflops for r in by_plan[p]] for p in ALL_PLANS},
        title="kernel GFLOPS vs N, all plans",
        y_label="GFLOPS, 20-flop convention",
    )
    return ExperimentResult("fig5", "plan GFLOPS vs N", table, chart, {"rows": rows})


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(
    *,
    n_values: Sequence[int] = PAPER_N_SWEEP,
    workload: str = "plummer",
    config: PlanConfig | None = None,
    n_steps: int = PAPER_N_STEPS,
) -> ExperimentResult:
    """Table 1: CPU vs GPU (jw-parallel) running time over ``n_steps`` steps.

    The CPU column models the paper's host running the *same* treecode
    (tree + walks + scalar force loop + integration).
    """
    host = (config or PlanConfig()).host
    rows = run_sweep(["jw"], n_values, workload=workload, config=config, n_steps=n_steps)
    table_rows = []
    speedups = []
    for r in rows:
        cpu_total = n_steps * (
            host.force_seconds(r.interactions // n_steps)
            + host.tree_build_seconds(r.n_bodies)
            + host.walk_generation_seconds(
                int(r.meta.get("n_walks", 0)),
                int(r.meta.get("n_walks", 0) * r.meta.get("mean_list_length", 0.0)),
            )
            + host.integration_seconds(r.n_bodies)
        )
        s = cpu_total / r.total_seconds
        speedups.append(s)
        table_rows.append(
            [f"{r.n_bodies:,}", fmt_seconds(cpu_total), fmt_seconds(r.total_seconds), fmt_ratio(s)]
        )
    table = format_table(
        f"Table 1 — CPU vs GPU (jw-parallel) running time, {n_steps} steps",
        ["N", f"CPU ({host.name})", "GPU (jw-parallel)", "speedup"],
        table_rows,
        notes=["paper: about 400x at large N"],
    )
    return ExperimentResult(
        "table1", "CPU vs GPU running time", table, None,
        {"rows": rows, "speedups": speedups},
    )


def _plan_time_table(
    which: str,
    title: str,
    notes: list[str],
    *,
    n_values: Sequence[int],
    workload: str,
    config: PlanConfig | None,
    n_steps: int,
) -> ExperimentResult:
    rows = run_sweep(list(ALL_PLANS), n_values, workload=workload, config=config, n_steps=n_steps)
    by_plan = _rows_by_plan(rows)
    attr = "total_seconds" if which == "total" else "kernel_seconds"
    table_rows = []
    for k, n in enumerate(n_values):
        vals = [getattr(by_plan[p][k], attr) for p in ALL_PLANS]
        jw = vals[-1]
        best_other = min(vals[:-1])
        table_rows.append(
            [f"{n:,}"]
            + [fmt_seconds(v) for v in vals]
            + [fmt_ratio(best_other / jw)]
        )
    table = format_table(
        title,
        ["N", "i-parallel", "j-parallel", "w-parallel", "jw-parallel", "jw vs best other"],
        table_rows,
        notes=notes,
    )
    return ExperimentResult(
        f"table{'2' if which == 'total' else '3'}",
        title,
        table,
        None,
        {"rows": rows},
    )


def table2(
    *,
    n_values: Sequence[int] = PAPER_N_SWEEP,
    workload: str = "plummer",
    config: PlanConfig | None = None,
    n_steps: int = PAPER_N_STEPS,
) -> ExperimentResult:
    """Table 2: total time (kernel + host + transfers) of all plans."""
    return _plan_time_table(
        "total",
        f"Table 2 — total time of the GPU plans, {n_steps} steps",
        ["paper: jw-parallel fastest overall; 2-5x vs prior GPU plans"],
        n_values=n_values,
        workload=workload,
        config=config,
        n_steps=n_steps,
    )


def table3(
    *,
    n_values: Sequence[int] = PAPER_N_SWEEP,
    workload: str = "plummer",
    config: PlanConfig | None = None,
    n_steps: int = PAPER_N_STEPS,
) -> ExperimentResult:
    """Table 3: running (kernel-only) time of all plans."""
    return _plan_time_table(
        "kernel",
        f"Table 3 — running (kernel) time of the GPU plans, {n_steps} steps",
        ["paper: jw-parallel's kernels are the fastest at every N"],
        n_values=n_values,
        workload=workload,
        config=config,
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# Ablations (design-choice studies beyond the paper's headline numbers)
# ---------------------------------------------------------------------------

def ablation_tile(
    *,
    n_values: Sequence[int] = (4096, 16384, 65536),
    wg_sizes: Sequence[int] = (64, 128, 256),
    workload: str = "plummer",
) -> ExperimentResult:
    """Work-group (tile) size ablation for the jw plan."""
    table_rows = []
    data: dict[str, Any] = {"points": []}
    for n in n_values:
        row = [f"{n:,}"]
        for p in wg_sizes:
            r = run_plan_point("jw", n, workload=workload, config=PlanConfig(wg_size=p))
            row.append(fmt_seconds(r.total_seconds))
            data["points"].append((n, p, r.total_seconds))
        table_rows.append(row)
    table = format_table(
        "Ablation — jw-parallel total time vs work-group size (100 steps)",
        ["N"] + [f"p={p}" for p in wg_sizes],
        table_rows,
        notes=["the paper uses p=256 (the HD 5850's maximum work-group size)"],
    )
    return ExperimentResult("abl-tile", "tile-size ablation", table, None, data)


def ablation_theta(
    *,
    n: int = 4096,
    thetas: Sequence[float] = (0.3, 0.45, 0.6, 0.8, 1.0),
    workload: str = "plummer",
    seed: int = 0,
) -> ExperimentResult:
    """BH opening-angle trade-off: force error vs jw step time.

    Runs the *functional* jw kernels and compares against float64 direct
    summation, so the error column is measured, not modelled.
    """
    particles = make_workload(workload, n, seed=seed)
    ref = direct_forces(
        particles.positions, particles.masses, softening=PlanConfig().softening,
        include_self=False,
    )
    table_rows = []
    errors = []
    times = []
    for theta in thetas:
        cfg = PlanConfig(theta=theta)
        plan = get_plan("jw", cfg)
        acc, step = plan.compute_step(particles.positions, particles.masses)
        err = rms_relative_error(acc, ref)
        errors.append(err)
        times.append(step.total_seconds)
        table_rows.append(
            [
                f"{theta:.2f}",
                f"{err:.2e}",
                fmt_seconds(step.total_seconds),
                f"{step.interactions:,}",
            ]
        )
    table = format_table(
        f"Ablation — accuracy vs time over theta (jw-parallel, N={n:,})",
        ["theta", "RMS force error", "step time", "interactions"],
        table_rows,
        notes=["paper cites the classic ~1% BH accuracy at typical theta"],
    )
    return ExperimentResult(
        "abl-theta", "theta ablation", table, None,
        {"thetas": list(thetas), "errors": errors, "times": times},
    )


def ablation_queue(
    *,
    n: int = 65536,
    workload: str = "plummer",
    seed: int = 0,
) -> ExperimentResult:
    """Dynamic walk queue vs static assignment (the jw scheduling claim)."""
    cfg = PlanConfig()
    particles = make_workload(workload, n, seed=seed)
    plan = get_plan("w", cfg)
    walks = plan.prepare(particles.positions, particles.masses)
    costs = walks.interactions_per_walk().astype(float)
    lpt = costs[np.argsort(costs)[::-1]]
    table_rows = []
    outcomes = {}
    for policy, items, rule in (
        ("static", costs, "static"),
        ("dynamic", costs, "dynamic"),
        ("dynamic-lpt", lpt, "dynamic"),
    ):
        out = trace_costs(items, cfg.device.compute_units, policy=rule)
        outcomes[policy] = out
        table_rows.append(
            [
                policy,
                f"{out.makespan:,.0f}",
                f"{out.utilization:.3f}",
                f"{(1.0 - out.utilization) * 100:.1f}%",
            ]
        )
    table = format_table(
        f"Ablation — walk scheduling policy (N={n:,}, {len(costs)} walks, "
        f"{cfg.device.compute_units} CUs)",
        ["policy", "makespan (interactions)", "balance efficiency", "idle"],
        table_rows,
        notes=["the jw plan's dynamic queue removes the static tail"],
    )
    return ExperimentResult("abl-queue", "queue ablation", table, None, {"outcomes": outcomes})


def ablation_quadrupole(
    *,
    n: int = 4096,
    thetas: Sequence[float] = (0.6, 0.8, 1.0),
    workload: str = "plummer",
    seed: int = 0,
) -> ExperimentResult:
    """Monopole vs quadrupole cells: the accuracy extension, measured.

    The quadrupole treecode (beyond the paper's monopole-only code) buys
    accuracy at fixed theta — equivalently, a larger theta (shorter lists,
    less device work) at fixed accuracy.
    """
    from repro.tree.octree import build_octree
    from repro.tree.quadrupole import bh_accelerations_quadrupole, quadrupole_moments
    from repro.tree.traversal import bh_accelerations

    particles = make_workload(workload, n, seed=seed)
    eps = PlanConfig().softening
    ref = direct_forces(
        particles.positions, particles.masses, softening=eps, include_self=False
    )
    tree = build_octree(particles.positions, particles.masses, leaf_size=16)
    quads = quadrupole_moments(tree)
    table_rows = []
    improvements = []
    for theta in thetas:
        mono = bh_accelerations(tree, theta=theta, softening=eps)
        quad = bh_accelerations_quadrupole(tree, theta=theta, softening=eps, quads=quads)
        e_m = rms_relative_error(mono, ref)
        e_q = rms_relative_error(quad, ref)
        improvements.append(e_m / e_q)
        table_rows.append([f"{theta:.2f}", f"{e_m:.2e}", f"{e_q:.2e}", fmt_ratio(e_m / e_q)])
    table = format_table(
        f"Ablation — monopole vs quadrupole cell moments (N={n:,})",
        ["theta", "monopole RMS err", "quadrupole RMS err", "improvement"],
        table_rows,
        notes=["extension beyond the paper: higher-order moments at the same theta"],
    )
    return ExperimentResult(
        "abl-quad", "quadrupole ablation", table, None,
        {"thetas": list(thetas), "improvements": improvements},
    )


def ablation_overlap(
    *,
    n_values: Sequence[int] = (4096, 16384, 65536),
    workload: str = "plummer",
) -> ExperimentResult:
    """Host/device overlap on vs off for the jw plan (the pipelining claim)."""
    table_rows = []
    gains = []
    for n in n_values:
        r_on = run_plan_point("jw", n, workload=workload)
        r_off = run_plan_point("jw", n, workload=workload, overlap=False)
        gain = r_off.total_seconds / r_on.total_seconds
        gains.append(gain)
        table_rows.append(
            [
                f"{n:,}",
                fmt_seconds(r_off.total_seconds),
                fmt_seconds(r_on.total_seconds),
                fmt_ratio(gain),
            ]
        )
    table = format_table(
        "Ablation — jw-parallel with and without host/device overlap (100 steps)",
        ["N", "no overlap", "overlap", "gain"],
        table_rows,
        notes=["overlap hides walk generation behind the kernel"],
    )
    return ExperimentResult("abl-overlap", "overlap ablation", table, None, {"gains": gains})


def extension_multigpu(
    *,
    n: int = 65536,
    devices: Sequence[int] = (1, 2, 4, 8),
    workload: str = "plummer",
    seed: int = 0,
) -> ExperimentResult:
    """Extension: jw-parallel projected across multiple GPUs.

    One host feeds a shared walk queue; device count scales kernel and
    transfer capacity but not walk generation, so speedup saturates at
    the host ceiling — the quantitative version of the paper's
    multi-device outlook.
    """
    particles = make_workload(workload, n, seed=seed)
    cfg = PlanConfig()
    table_rows = []
    totals = []
    base_total = None
    for d in devices:
        plan = get_plan("jw", replace(cfg, device=multi_device(cfg.device, d)))
        b = plan.step_breakdown(particles.positions, particles.masses)
        totals.append(b.total_seconds)
        base_total = base_total if base_total is not None else b.total_seconds
        table_rows.append(
            [
                str(d),
                fmt_seconds(b.total_seconds),
                fmt_seconds(b.kernel_seconds),
                fmt_seconds(b.host_seconds),
                fmt_ratio(base_total / b.total_seconds),
            ]
        )
    table = format_table(
        f"Extension — jw-parallel multi-GPU projection (N={n:,}, one host)",
        ["devices", "step total", "kernel", "host (walks)", "speedup"],
        table_rows,
        notes=["scaling saturates when host walk generation becomes critical"],
    )
    return ExperimentResult(
        "ext-multigpu", "multi-GPU projection", table, None,
        {"devices": list(devices), "totals": totals},
    )


def validation_accuracy(
    *,
    n: int = 1024,
    plans: Sequence[str] = ("i", "j", "w", "jw"),
    workloads: Sequence[str] = ("plummer", "uniform", "two_clusters", "disc"),
    seed: int = 0,
) -> ExperimentResult:
    """Validation sweep: every plan's functional kernels vs the oracle."""
    from repro.bench.validation import accuracy_matrix, render_accuracy_matrix

    cells = accuracy_matrix(plans=plans, workloads=workloads, n=n, seed=seed)
    table = render_accuracy_matrix(cells)
    return ExperimentResult(
        "val-accuracy", "plan x workload accuracy validation", table, None,
        {"cells": cells, "all_passed": all(c.passed for c in cells)},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig4": fig4,
    "fig5": fig5,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "abl-tile": ablation_tile,
    "abl-theta": ablation_theta,
    "abl-queue": ablation_queue,
    "abl-overlap": ablation_overlap,
    "abl-quad": ablation_quadrupole,
    "ext-multigpu": extension_multigpu,
    "val-accuracy": validation_accuracy,
}

#: Experiments that take an ``n_values`` sweep (``quick`` picks the short one).
SWEEP_EXPERIMENTS = frozenset({"fig4", "fig5", "table1", "table2", "table3"})

#: Experiments that take ``n_steps`` (the paper's timed tables).
STEPS_EXPERIMENTS = frozenset({"table1", "table2", "table3"})

#: Experiments that take a ``workload``.
WORKLOAD_EXPERIMENTS = SWEEP_EXPERIMENTS | {
    "abl-tile",
    "abl-theta",
    "abl-queue",
    "abl-overlap",
    "abl-quad",
    "ext-multigpu",
}


def experiment_kwargs(
    exp_id: str,
    *,
    quick: bool = False,
    workload: str | None = None,
    steps: int | None = None,
) -> dict[str, Any]:
    """The keywords an experiment gets from the common bench options.

    The one builder behind ``bench <id>``, ``bench all``, ``profile`` and
    ``bench report``: each option reaches only the experiments that take
    it, and ``workload`` defaults to ``"plummer"``.
    """
    kwargs: dict[str, Any] = {}
    if exp_id in WORKLOAD_EXPERIMENTS:
        kwargs["workload"] = workload or "plummer"
    if quick and exp_id in SWEEP_EXPERIMENTS:
        kwargs["n_values"] = QUICK_N_SWEEP
    if steps is not None and exp_id in STEPS_EXPERIMENTS:
        kwargs["n_steps"] = steps
    return kwargs


def run_experiment(exp_id: str, **kwargs: Any) -> ExperimentResult:
    """Run a registered experiment by id."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment '{exp_id}'; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
