"""Floating-point-operation accounting conventions.

GFLOPS figures for N-body codes are only comparable under a stated
*flops-per-interaction* convention.  The paper follows the two conventions
common in the GPU N-body literature:

* ``FLOPS_PER_INTERACTION_GEMS = 20`` — the GPU Gems 3 / Nyland et al.
  convention: one body-body interaction (eq. (2) of the paper: three
  coordinate differences, squared distance with softening, one
  reciprocal-sqrt counted as a single flop, cube, scale, three
  multiply-adds into the accumulator) is billed at 20 flops.  This is the
  convention behind the paper's "300 GFLOPS sustained" numbers.

* ``FLOPS_PER_INTERACTION_RSQRT = 38`` — the convention used by Hamada et
  al. and by the marketing-friendly numbers in several treecode papers,
  where the reciprocal square root is billed at its Newton-iteration
  expansion cost.  The paper's quoted 431 GFLOPS peak corresponds to
  counting rsqrt this way.

All throughput numbers in :mod:`repro.perfmodel.metrics` take the
convention explicitly so both of the paper's headline figures can be
regenerated.
"""

from __future__ import annotations

#: GPU Gems 3 convention: 20 flops per body-body interaction.
FLOPS_PER_INTERACTION_GEMS = 20

#: Expanded-rsqrt convention: 38 flops per body-body interaction.
FLOPS_PER_INTERACTION_RSQRT = 38

#: The convention the paper's sustained-GFLOPS axis uses.
DEFAULT_FLOPS_PER_INTERACTION = FLOPS_PER_INTERACTION_GEMS


def interaction_flops(
    n_interactions: int | float,
    flops_per_interaction: int = DEFAULT_FLOPS_PER_INTERACTION,
) -> float:
    """Total flops for ``n_interactions`` body-body interactions.

    Parameters
    ----------
    n_interactions:
        Number of pairwise (i, j) force evaluations performed.  For the PP
        method over one step this is ``N * N`` (GPU implementations include
        the self-interaction, which softening renders harmless — the paper
        and GPU Gems both count it).
    flops_per_interaction:
        Billing convention; see module docstring.
    """
    if n_interactions < 0:
        raise ValueError(f"n_interactions must be >= 0, got {n_interactions}")
    return float(n_interactions) * float(flops_per_interaction)


def gflops(n_interactions: int | float, seconds: float,
           flops_per_interaction: int = DEFAULT_FLOPS_PER_INTERACTION) -> float:
    """Sustained GFLOPS for a run that performed ``n_interactions`` in ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    return interaction_flops(n_interactions, flops_per_interaction) / seconds / 1e9
