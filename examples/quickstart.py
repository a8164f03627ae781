"""Quickstart: simulate a Plummer cluster with the jw-parallel plan.

Builds a 4096-body cluster, evolves it for 20 leapfrog steps through the
simulated GPU, and prints physics diagnostics plus the simulated device
timing — the two things this library produces.

Run:  python examples/quickstart.py
"""

from repro.core import JwParallelPlan, PlanConfig, Simulation
from repro.nbody import plummer, total_energy, virial_ratio

SOFTENING = 1e-2


def main() -> None:
    # 1. a workload: equilibrium Plummer sphere in N-body units
    particles = plummer(4096, seed=42)
    print(f"workload: {particles}")
    print(f"  virial ratio : {virial_ratio(particles, softening=SOFTENING):.3f}")
    e0 = total_energy(particles, softening=SOFTENING)
    print(f"  total energy : {e0:+.4f}")

    # 2. a plan: the paper's jw-parallel treecode on the simulated HD 5850
    config = PlanConfig(softening=SOFTENING, theta=0.6)
    plan = JwParallelPlan(config)
    print(f"plan: jw-parallel on {config.device.name}")

    # 3. run
    sim = Simulation(particles, plan, dt=1e-3)
    record = sim.run(20)

    # 4. physics: energy must be conserved by the symplectic integrator
    e1 = total_energy(particles, softening=SOFTENING)
    drift = abs(e1 - e0) / abs(e0)
    print(f"\nafter {record.steps} force evaluations (t = {sim.time:.3f}):")
    print(f"  total energy : {e1:+.4f}  (relative drift {drift:.2e})")

    # 5. performance: what this run would have cost on the modelled GPU
    step = record.last_breakdown
    print("\nsimulated device accounting (per step):")
    print(f"  kernel time    : {step.kernel_seconds * 1e3:8.3f} ms")
    print(f"  host (tree+walks): {step.host_seconds * 1e3:6.3f} ms (overlapped)")
    print(f"  transfers      : {step.transfer_seconds * 1e3:8.3f} ms")
    print(f"  total          : {step.total_seconds * 1e3:8.3f} ms")
    print(f"  interactions   : {step.interactions:,}")
    print(f"  kernel GFLOPS  : {step.kernel_gflops():.1f} (20-flop convention)")


if __name__ == "__main__":
    main()
