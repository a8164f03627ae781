"""Visualize the scheduling story: why the dynamic walk queue wins.

Renders per-compute-unit execution timelines (ASCII Gantt charts) of the
same Barnes-Hut walk workload under w-parallel's static assignment and
the jw plan's dynamic queue + j-splitting, then shows the host/DMA/GPU
event graph that produces the jw overlap.  This makes the two mechanisms
behind the paper's Tables 2-3 visible rather than just aggregated.

Run:  python examples/scheduling_trace.py
"""

from repro.core import JwParallelPlan, PlanConfig, WParallelPlan
from repro.gpu import EventGraph, trace_launch
from repro.nbody import plummer

SOFTENING = 1e-2
N = 8192


def main() -> None:
    particles = plummer(N, seed=13)
    cfg = PlanConfig(softening=SOFTENING)

    w_plan = WParallelPlan(cfg)
    walks = w_plan.prepare(particles.positions, particles.masses)
    print(f"workload: {N} bodies -> {len(walks)} walks, "
          f"{walks.total_interactions:,} interactions, "
          f"load imbalance {walks.load_imbalance():.2f}\n")

    # --- w-parallel: one block per walk, static assignment ---------------
    w_launch = w_plan._launch(walks)
    tr_static = trace_launch(cfg.device, w_launch, schedule="static")
    print("w-parallel (static walk->block assignment):")
    print(tr_static.gantt(width=64))

    # --- jw-parallel: j-split items drained from a dynamic queue ---------
    jw_plan = JwParallelPlan(cfg)
    jw_launch, _ = jw_plan._launches(walks, jw_plan.split_counts(walks))
    tr_dyn = trace_launch(cfg.device, jw_launch, schedule="hardware")
    print("\njw-parallel (dynamic queue, work-proportional j-split):")
    print(tr_dyn.gantt(width=64))

    speedup = tr_static.makespan / tr_dyn.makespan
    print(f"\nkernel makespan ratio (static w / dynamic jw): {speedup:.2f}x")

    # --- the time axis: host -> DMA -> GPU event graph -------------------
    b = jw_plan.breakdown_from_walks(walks)
    batches = 8
    g = EventGraph.pipelined_step(
        [b.host_seconds / batches] * batches,
        [0.1 * b.kernel_seconds / batches] * batches,
        [b.kernel_seconds / batches] * batches,
    )
    records = g.simulate()
    print("\njw step as an event graph (8 walk batches):")
    for r in records[:6]:
        print(f"  {r.command.resource:>5} {r.command.label:<9} "
              f"[{r.start * 1e3:7.3f} .. {r.end * 1e3:7.3f}] ms")
    print("  ...")
    serial = b.host_seconds + 0.1 * b.kernel_seconds + b.kernel_seconds
    print(f"  pipelined makespan : {g.makespan() * 1e3:.3f} ms")
    print(f"  serial composition : {serial * 1e3:.3f} ms "
          f"({serial / g.makespan():.2f}x slower)")


if __name__ == "__main__":
    main()
