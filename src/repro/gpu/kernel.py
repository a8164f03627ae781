"""Work accounting of the simulated kernels' work-groups.

Each helper returns the :class:`~repro.gpu.launch.WorkGroups` columns of
one launch — interactions issued and useful, tiles, global and local
memory bytes, barriers, reductions — taking one array entry per
work-group.  The timing engine prices these columns; the arithmetic of
the same tiles runs through
:func:`repro.nbody.forces.accelerations_from_sources` with ``block``
equal to the work-group size, and each plan asserts that the
interactions it evaluated equal its launch's, so physics and timing
describe one computation.

Tile structure (section 4.1 / Fig. 1-2 of the paper): a work-group of
``p`` threads processes the source dimension in tiles of ``p`` bodies;
each tile is loaded cooperatively into local memory behind a barrier, each
thread accumulates ``p`` interactions from the tile, and a second barrier
precedes the next load.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.launch import WorkGroups
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY
from repro.gpu.wavefront import active_wavefronts

__all__ = [
    "tile_loop_work",
    "packed_tile_loop_work",
    "reduction_work",
]


def _ceil_div(a: np.ndarray, b: int) -> np.ndarray:
    """``ceil(a / b)`` of non-negative integers, exactly."""
    return -(-a // b)


def tile_loop_work(
    *,
    active_threads: np.ndarray,
    n_sources: np.ndarray | int,
    wg_size: int,
    wavefront_size: int,
) -> WorkGroups:
    """Work of *thread-per-body* tiled loops (i, j and w plans), one
    work-group per entry of ``active_threads``.

    Each of a group's ``active_threads`` i-threads serially processes all
    ``n_sources`` tile entries.  Partially-filled wavefronts issue at full
    width, so idle lanes are charged — this is the w-parallel efficiency
    loss the paper identifies.
    """
    active = np.asarray(active_threads, dtype=np.int64)
    n_sources = np.asarray(n_sources, dtype=np.int64)
    # an idle group or a negative source count fails WorkGroups' checks
    tiles = _ceil_div(n_sources, wg_size)
    return WorkGroups(
        interactions=active * n_sources,
        issued_interactions=_ceil_div(active, wavefront_size) * wavefront_size * n_sources,
        active_threads=active,
        tiles=tiles,
        global_bytes=(
            tiles * (wg_size * BYTES_PER_BODY)
            + active * (BYTES_PER_BODY + BYTES_PER_ACCEL)
        ),
        lds_bytes_peak=wg_size * BYTES_PER_BODY,
        barriers=2 * tiles,
    )


def packed_tile_loop_work(
    *,
    n_targets: np.ndarray,
    n_sources: np.ndarray,
    wg_size: int,
    wavefront_size: int,
) -> WorkGroups:
    """Work of the jw plan's *packed* (i x j) thread mapping, one
    work-group per ``(n_targets, n_sources)`` pair.

    The ``n_targets * n_sources`` interaction rectangle is flattened
    across all ``wg_size`` threads, so only the final partial wavefront
    carries padding; the j-direction split requires a local-memory
    reduction of ``n_targets * splits`` partial accelerations.
    """
    n_targets = np.asarray(n_targets, dtype=np.int64)
    n_sources = np.asarray(n_sources, dtype=np.int64)
    if (n_targets < 1).any():
        raise ValueError(f"n_targets must be >= 1, got {n_targets.min()}")
    if (n_sources < 0).any():
        raise ValueError(f"n_sources must be >= 0, got {n_sources.min()}")
    total = n_targets * n_sources
    lanes = active_wavefronts(wg_size, wavefront_size) * wavefront_size
    splits = np.maximum(1, wg_size // n_targets)
    tiles = _ceil_div(n_sources, wg_size)
    # floor(log2(splits)) for splits >= 2, exactly: frexp's exponent is the bit length
    log2_splits = np.frexp(np.maximum(2, splits).astype(np.float64))[1] - 1
    return WorkGroups(
        interactions=total,
        issued_interactions=lanes * _ceil_div(total, wg_size),
        active_threads=np.minimum(wg_size, np.maximum(1, total)),
        tiles=tiles,
        global_bytes=(
            tiles * (wg_size * BYTES_PER_BODY)
            + n_targets * (BYTES_PER_BODY + BYTES_PER_ACCEL)
        ),
        lds_bytes_peak=wg_size * BYTES_PER_BODY + n_targets * splits * BYTES_PER_ACCEL,
        barriers=2 * tiles + log2_splits,
        reduction_ops=n_targets * splits,
    )


def reduction_work(
    *,
    n_outputs: np.ndarray,
    n_partials_per_output: np.ndarray | int,
    wg_size: int,
) -> WorkGroups:
    """Work of j-parallel partial-force reduction work-groups, one per
    entry of ``n_outputs``.

    Memory-bound: each reads ``n_outputs * n_partials_per_output``
    partial accelerations from global memory and writes ``n_outputs``
    results.
    """
    n_outputs = np.asarray(n_outputs, dtype=np.int64)
    partials = np.asarray(n_partials_per_output, dtype=np.int64)
    if (n_outputs < 1).any():
        raise ValueError(f"n_outputs must be >= 1, got {n_outputs.min()}")
    if (partials < 1).any():
        raise ValueError(f"n_partials_per_output must be >= 1, got {partials.min()}")
    return WorkGroups(
        interactions=0,
        issued_interactions=0,
        active_threads=np.minimum(n_outputs, wg_size),
        global_bytes=n_outputs * (partials + 1) * BYTES_PER_ACCEL,
        reduction_ops=n_outputs * partials,
    )
