"""Two-cluster collision: the workload the paper's introduction motivates.

Two Plummer spheres fall together, merge, and relax.  The example tracks
energy and angular momentum through the encounter and reports how the
simulated GPU's per-step cost evolves as the mass distribution changes
(the merger deepens the tree and lengthens interaction lists — a genuine
load-balancing stress for the walk-based plans).

Run:  python examples/galaxy_collision.py
"""

import numpy as np

from repro.core import JwParallelPlan, PlanConfig, Simulation
from repro.nbody import angular_momentum, total_energy, two_clusters

SOFTENING = 2e-2


def main() -> None:
    particles = two_clusters(
        4096,
        separation=4.0,
        approach_speed=0.6,
        impact_parameter=0.8,
        mass_ratio=1.0,
        seed=7,
    )
    e0 = total_energy(particles, softening=SOFTENING)
    l0 = angular_momentum(particles)
    print(f"colliding clusters: {particles.n} bodies, E0 = {e0:+.4f}, "
          f"|L0| = {np.linalg.norm(l0):.4f}")

    plan = JwParallelPlan(PlanConfig(softening=SOFTENING, theta=0.6))
    sim = Simulation(particles, plan, dt=2e-3)

    print(f"\n{'t':>6} {'E drift':>9} {'|L| drift':>9} {'sep':>6} "
          f"{'walks':>6} {'step ms':>8} {'GFLOPS':>7}")

    def separation() -> float:
        """Distance between the two halves' centres of mass."""
        half = particles.n // 2
        c1 = particles.positions[:half].mean(axis=0)
        c2 = particles.positions[half:].mean(axis=0)
        return float(np.linalg.norm(c1 - c2))

    def report(s: Simulation) -> None:
        e = total_energy(s.particles, softening=SOFTENING)
        l = angular_momentum(s.particles)
        b = s.record.last_breakdown
        print(
            f"{s.time:6.3f} {abs(e - e0) / abs(e0):9.2e} "
            f"{np.linalg.norm(l - l0) / np.linalg.norm(l0):9.2e} "
            f"{separation():6.2f} {b.meta['n_walks']:6d} "
            f"{b.total_seconds * 1e3:8.3f} {b.kernel_gflops():7.1f}"
        )

    sim.run(60, callback=report, callback_every=10)

    e1 = total_energy(particles, softening=SOFTENING)
    print(f"\nfinal energy drift: {abs(e1 - e0) / abs(e0):.2e}")
    print(f"simulated GPU time for the whole run: "
          f"{sim.record.simulated_seconds * 1e3:.1f} ms "
          f"({sim.record.steps} force evaluations)")


if __name__ == "__main__":
    main()
