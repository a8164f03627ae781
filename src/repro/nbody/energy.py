"""Energy, momentum and virial diagnostics.

These are the invariants the integration tests and long-run examples check:
for an isolated system the total energy, linear momentum and angular
momentum are conserved (up to integrator truncation error), and a relaxed
system satisfies the virial relation ``2K + U ~ 0``.
"""

from __future__ import annotations

import numpy as np

from repro.nbody.particles import ParticleSet

__all__ = [
    "kinetic_energy",
    "potential_energy",
    "total_energy",
    "momentum",
    "angular_momentum",
    "virial_ratio",
]


def kinetic_energy(p: ParticleSet) -> float:
    """Total kinetic energy ``sum(m v^2) / 2``."""
    v2 = np.einsum("ij,ij->i", p.velocities, p.velocities)
    return 0.5 * float(p.masses @ v2)


def potential_energy(
    p: ParticleSet,
    *,
    softening: float = 0.0,
    G: float = 1.0,
    block: int = 2048,
) -> float:
    """Total (softened) gravitational potential energy.

    ``U = -G * sum_{i<j} m_i m_j / sqrt(r_ij^2 + eps^2)``, evaluated
    blockwise in O(N^2) time but O(N * block) memory.
    """
    pos = p.positions
    m = p.masses
    n = p.n
    eps2 = softening * softening
    u = 0.0
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        d = pos[s0:s1][np.newaxis, :, :] - pos[:, np.newaxis, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        with np.errstate(divide="ignore"):
            inv_r = r2 ** -0.5
        rows = np.arange(s0, s1)
        inv_r[rows, rows - s0] = 0.0  # drop self terms
        u += float(m @ inv_r @ m[s0:s1])
    return -0.5 * G * u  # each unordered pair was counted twice


def total_energy(
    p: ParticleSet, *, softening: float = 0.0, G: float = 1.0
) -> float:
    """Kinetic plus potential energy."""
    return kinetic_energy(p) + potential_energy(p, softening=softening, G=G)


def momentum(p: ParticleSet) -> np.ndarray:
    """Total linear momentum, shape ``(3,)``."""
    return p.masses @ p.velocities


def angular_momentum(p: ParticleSet) -> np.ndarray:
    """Total angular momentum about the origin, shape ``(3,)``."""
    return (p.masses[:, np.newaxis] * np.cross(p.positions, p.velocities)).sum(axis=0)


def virial_ratio(p: ParticleSet, *, softening: float = 0.0, G: float = 1.0) -> float:
    """The ratio ``-2K / U``; 1.0 for a system in virial equilibrium."""
    u = potential_energy(p, softening=softening, G=G)
    if u == 0.0:
        raise ValueError("potential energy is zero; virial ratio undefined")
    return -2.0 * kinetic_energy(p) / u
