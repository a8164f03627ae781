"""N-body physics substrate: particles, workloads, forces, time steps.

This subpackage is the ground-truth physics layer every higher level
(treecode, simulated GPU plans, benchmarks) builds on and is validated
against.
"""

from repro.nbody.particles import ParticleSet
from repro.nbody.forces import (
    DEFAULT_SOFTENING,
    accelerations_from_sources,
    direct_forces,
    direct_forces_naive,
    pairwise_force,
)
from repro.nbody.energy import (
    angular_momentum,
    kinetic_energy,
    momentum,
    potential_energy,
    total_energy,
    virial_ratio,
)
from repro.nbody.ic import cold_disc, plummer, two_clusters, uniform_cube, uniform_sphere
from repro.nbody.flops import (
    DEFAULT_FLOPS_PER_INTERACTION,
    FLOPS_PER_INTERACTION_GEMS,
    FLOPS_PER_INTERACTION_RSQRT,
    gflops,
    interaction_flops,
)
from repro.nbody.io import load_snapshot, save_snapshot
from repro.nbody.timestep import acceleration_timestep

__all__ = [
    "ParticleSet",
    "DEFAULT_SOFTENING",
    "accelerations_from_sources",
    "direct_forces",
    "direct_forces_naive",
    "pairwise_force",
    "angular_momentum",
    "kinetic_energy",
    "momentum",
    "potential_energy",
    "total_energy",
    "virial_ratio",
    "cold_disc",
    "plummer",
    "two_clusters",
    "uniform_cube",
    "uniform_sphere",
    "DEFAULT_FLOPS_PER_INTERACTION",
    "FLOPS_PER_INTERACTION_GEMS",
    "FLOPS_PER_INTERACTION_RSQRT",
    "gflops",
    "interaction_flops",
    "acceleration_timestep",
    "load_snapshot",
    "save_snapshot",
]
