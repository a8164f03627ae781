"""Gravitational force evaluation: the particle-particle (PP) substrate.

Implements eq. (1)/(2) of the paper: softened Newtonian gravity

    a_i = G * sum_j m_j * (x_j - x_i) / (|x_j - x_i|^2 + eps^2)^(3/2)

Three implementations are provided:

* :func:`accelerations_from_sources` — the workhorse: targets x sources
  evaluation, ``block`` source columns at a time.  Every higher-level
  force path (direct PP, Barnes-Hut list evaluation, the simulated GPU
  plans' ``p``-wide tile loops, run with ``block=p`` in float32) funnels
  through it, so correctness is established once.
* :func:`direct_forces` — all-pairs forces of a set on itself (the CPU
  reference for the paper's PP method).
* :func:`direct_forces_naive` — a deliberately scalar, loop-per-pair
  implementation used only in tests as an independent oracle.

The GPU-kernel convention of including the (softening-neutralised)
self-interaction is followed by default so flop accounting matches the
paper; pass ``include_self=False`` for the mathematically minimal sum.

Both entry points validate their arguments and hand the arithmetic to
the kernel backend (:mod:`repro.nbody.kernels`) —
``resolve_backend(backend).sources`` / ``.self_forces`` — for every
backend; this is the one place a force path chooses its arithmetic.
``backend=None`` follows the configured selection
(``repro.configure(kernel_backend=)`` / ``REPRO_KERNEL_BACKEND``,
default ``numpy``).  The ``numpy`` reference runs the blocked loops
(temporaries from the calling thread's workspace) and is bit-identical
to the pre-seam implementation; the compiled ``cext`` backend stages its
own contiguous buffers and computes the same sum with reassociated
accumulation, validated under the ``compiled-*`` oracle tolerances.

Softening enters squared: ``eps2 = softening * softening`` is computed in
float64 and rounded to the arithmetic dtype exactly once (inside the
kernel), for every dtype — the float32 paths used to square an
already-rounded float32 softening, which disagreed with the float64
definition of the same physics by an ulp-level but systematic amount.
"""

from __future__ import annotations

import numpy as np

from repro.nbody.kernels import KernelBackend, resolve_backend

__all__ = [
    "accelerations_from_sources",
    "direct_forces",
    "direct_forces_naive",
    "pairwise_force",
    "DEFAULT_SOFTENING",
]

#: Default Plummer softening length, a typical collisionless-simulation
#: choice for the N ~ 10^3..10^5 workloads in the paper's sweeps.
DEFAULT_SOFTENING = 1e-2


def accelerations_from_sources(
    targets: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    *,
    softening: float = DEFAULT_SOFTENING,
    G: float = 1.0,
    block: int = 2048,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    dtype: np.dtype | type = np.float64,
    backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """Accelerations exerted by point sources on target positions.

    Parameters
    ----------
    targets:
        ``(nt, 3)`` target positions.
    src_pos, src_mass:
        ``(ns, 3)`` source positions and ``(ns,)`` source masses.
    softening:
        Plummer softening length ``eps``; distances enter as
        ``r^2 + eps^2``.
    G:
        Gravitational constant.
    block:
        Number of source columns processed per blocked pass — bounds the
        temporary to ``nt x block`` so large problems stay cache-friendly
        instead of materialising the full ``nt x ns`` matrix.  The plans
        pass the work-group size ``p``: the device's tile width.  Compiled
        backends ignore it.
    out:
        Optional pre-allocated ``(nt, 3)`` output of dtype ``dtype``;
        anything else raises :class:`ValueError` (a mismatched ``out``
        would silently truncate results through the in-place ``+=``).
    accumulate:
        When true, add into ``out`` instead of overwriting (the tree
        plans add a walk's list segments into one accumulator).
    dtype:
        Arithmetic precision; device kernels use ``float32``.
    backend:
        Kernel backend (name, instance, or ``None`` for the configured
        selection).  Unavailable backends degrade to ``numpy`` with a
        one-time warning; see :func:`repro.nbody.kernels.resolve_backend`.

    Returns
    -------
    ``(nt, 3)`` array of accelerations.
    """
    targets = np.asarray(targets, dtype=dtype)
    src_pos = np.asarray(src_pos, dtype=dtype)
    src_mass = np.asarray(src_mass, dtype=dtype)
    if targets.ndim != 2 or targets.shape[1] != 3:
        raise ValueError(f"targets must be (nt, 3), got {targets.shape}")
    if src_pos.ndim != 2 or src_pos.shape[1] != 3:
        raise ValueError(f"src_pos must be (ns, 3), got {src_pos.shape}")
    if src_mass.shape != (src_pos.shape[0],):
        raise ValueError(
            f"src_mass must be ({src_pos.shape[0]},), got {src_mass.shape}"
        )
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")

    nt = targets.shape[0]
    if out is None:
        out = np.zeros((nt, 3), dtype=dtype)
        accumulate = True  # freshly zeroed: accumulate == overwrite
    else:
        if not isinstance(out, np.ndarray):
            raise ValueError(f"out must be an ndarray, got {type(out).__name__}")
        if out.shape != (nt, 3):
            raise ValueError(f"out must have shape ({nt}, 3), got {out.shape}")
        if out.dtype != np.dtype(dtype):
            raise ValueError(
                f"out dtype {out.dtype} does not match arithmetic dtype "
                f"{np.dtype(dtype)}"
            )
        if not accumulate:
            out[:] = 0.0
    # Squared in float64 regardless of the arithmetic dtype; the kernel
    # rounds it to `dtype` exactly once (square-then-cast policy).
    eps2 = softening * softening

    # G scales this call's contribution only — the kernel's partial sums,
    # before they are added to `out` — so accumulate=True composes passes
    # like one call over all their sources.
    resolve_backend(backend).sources(
        targets, src_pos, src_mass,
        eps2=eps2, G=G, out=out, accumulate=True, block=block,
    )
    return out


def direct_forces(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    softening: float = DEFAULT_SOFTENING,
    G: float = 1.0,
    block: int = 2048,
    include_self: bool = True,
    dtype: np.dtype | type = np.float64,
    backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """All-pairs accelerations of a particle set on itself (O(N^2)).

    With ``include_self=True`` (default, matching the GPU kernels) the
    i == j term is evaluated; it contributes exactly zero because the
    displacement is zero, softening only prevents the division blowing up.

    With ``include_self=False`` and ``softening == 0`` coincident
    *distinct* bodies have no finite pair force; each block is validated
    *before* its contribution is summed and the offending global
    ``(i, j)`` index pairs are named in the raised
    :class:`~repro.nbody.kernels.CoincidentPairError` (a
    :class:`ValueError`), rather than silently propagating ``inf``/``nan``
    accelerations or misattributing them to earlier blocks.
    """
    positions = np.asarray(positions, dtype=dtype)
    masses = np.asarray(masses, dtype=dtype)
    if include_self:
        return accelerations_from_sources(
            positions, positions, masses,
            softening=softening, G=G, block=block, dtype=dtype, backend=backend,
        )
    # Exclude the diagonal explicitly: evaluate blocked and mask the i == j
    # slot (its force is identically zero); for softening == 0 any *other*
    # zero distance is a coincident distinct pair — an error, not a nan.
    acc = np.zeros((positions.shape[0], 3), dtype=dtype)
    resolve_backend(backend).self_forces(
        positions, masses, eps2=softening * softening, out=acc, block=block
    )
    if G != 1.0:
        acc *= dtype(G)
    return acc


def direct_forces_naive(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    softening: float = DEFAULT_SOFTENING,
    G: float = 1.0,
) -> np.ndarray:
    """Scalar, loop-per-pair reference used as an independent test oracle.

    O(N^2) in pure Python — keep N small (tests use N <= ~128).
    """
    positions = np.asarray(positions, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    n = positions.shape[0]
    acc = np.zeros((n, 3))
    eps2 = softening * softening
    for i in range(n):
        xi, yi, zi = positions[i]
        ax = ay = az = 0.0
        for j in range(n):
            if j == i:
                continue
            dx = positions[j, 0] - xi
            dy = positions[j, 1] - yi
            dz = positions[j, 2] - zi
            r2 = dx * dx + dy * dy + dz * dz + eps2
            inv_r3 = 1.0 / (r2 * np.sqrt(r2))
            w = masses[j] * inv_r3
            ax += w * dx
            ay += w * dy
            az += w * dz
        acc[i] = (ax, ay, az)
    return G * acc


def pairwise_force(
    x_i: np.ndarray,
    x_j: np.ndarray,
    m_i: float,
    m_j: float,
    *,
    softening: float = 0.0,
    G: float = 1.0,
) -> np.ndarray:
    """Force vector **on body i** exerted by body j — eq. (1) of the paper.

    ``f_ij = G * m_i * m_j * (x_j - x_i) / (|x_j - x_i|^2 + eps^2)^(3/2)``
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    d = x_j - x_i
    r2 = float(d @ d) + softening * softening
    if r2 == 0.0:
        raise ValueError("coincident bodies with zero softening have undefined force")
    return G * m_i * m_j * d / r2**1.5
