"""Functional work-group execution and matching work accounting.

The simulated kernels are *real*: they evaluate the same arithmetic the
OpenCL kernels in the paper perform, in ``float32``, staging source tiles
through an emulated local memory.  For every functional helper there is a
sibling ``*_work`` helper returning the work record the
timing engine consumes — both derive their counts from the same tile
geometry, so physics and timing describe one computation.  The ``*_work``
helpers take one array entry per work-group and return the launch's
:class:`~repro.gpu.launch.WorkGroups` columns.

Tile structure (section 4.1 / Fig. 1-2 of the paper): a work-group of
``p`` threads processes the source dimension in tiles of ``p`` bodies;
each tile is loaded cooperatively into local memory behind a barrier, each
thread accumulates ``p`` interactions from the tile, and a second barrier
precedes the next load.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exec.workspace import Workspace, local_workspace
from repro.gpu.counters import CostCounters
from repro.nbody.kernels import KernelBackend, resolve_backend
from repro.gpu.device import DeviceSpec
from repro.gpu.launch import WorkGroups
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY, check_lds_fit
from repro.gpu.wavefront import active_wavefronts

__all__ = [
    "tile_loop_forces",
    "tile_loop_work",
    "packed_tile_loop_work",
    "reduction_work",
]


def tile_loop_forces(
    targets: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    *,
    wg_size: int,
    softening: float,
    G: float = 1.0,
    device: DeviceSpec | None = None,
    counters: CostCounters | None = None,
    dtype: np.dtype | type = np.float32,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    workspace: Workspace | None = None,
    backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """Functionally execute one work-group's tiled force loop.

    ``targets`` are the work-group's i-bodies (one per active thread for
    the i/w plans; the whole walk group for jw).  Sources are staged
    through an emulated LDS tile of ``wg_size`` bodies at a time and the
    partial accelerations accumulate in ``dtype`` precision, reproducing
    device rounding behaviour.

    ``out`` (``(nt, 3)`` of ``dtype``) receives the result — added in
    place when ``accumulate`` is true, overwritten otherwise.  ``G``
    scales this call's contribution only (each tile's partial before it
    is added), so accumulated calls compose like one call over all
    their sources.  Tile temporaries and input casts come from
    ``workspace`` (the calling thread's local workspace by default), so
    steady-state evaluation allocates nothing beyond a missing ``out``.

    ``backend`` selects the kernel backend.  On a compiled backend the
    same interaction rectangle is evaluated in ``dtype`` without staging
    tiles through the emulated LDS (accumulation order differs, covered
    by the ``compiled-*`` oracle tolerances); the tile geometry and the
    work/``counters`` accounting are unchanged, so timing still describes
    the device the plan models.
    """
    if wg_size < 1:
        raise ValueError(f"wg_size must be >= 1, got {wg_size}")
    if device is not None:
        check_lds_fit(device, wg_size * BYTES_PER_BODY)
    ws = workspace if workspace is not None else local_workspace()
    targets = ws.cast("kernel.targets", np.asarray(targets), dtype)
    src_pos = ws.cast("kernel.src_pos", np.asarray(src_pos), dtype)
    src_mass = ws.cast("kernel.src_mass", np.asarray(src_mass), dtype)
    nt = targets.shape[0]
    ns = src_pos.shape[0]
    if out is None:
        acc = np.zeros((nt, 3), dtype=dtype)
    else:
        if out.shape != (nt, 3) or out.dtype != np.dtype(dtype):
            raise ValueError(
                f"out must be ({nt}, 3) of {np.dtype(dtype)}, got "
                f"{out.shape} of {out.dtype}"
            )
        acc = out
        if not accumulate:
            acc[:] = 0.0
    # Squared in float64, rounded to `dtype` once (square-then-cast) — the
    # float32 device kernels share the float64 definition of the softening.
    eps2 = dtype(softening * softening)

    kb = resolve_backend(backend)
    if kb.kind != "reference":
        targets = np.ascontiguousarray(targets)
        src_pos = np.ascontiguousarray(src_pos)
        src_mass = np.ascontiguousarray(src_mass)
        if acc.flags.c_contiguous:
            kb.sources(targets, src_pos, src_mass, eps2=float(eps2), G=G,
                       out=acc, accumulate=True)
        else:
            tmp = np.empty((nt, 3), dtype=dtype)
            kb.sources(targets, src_pos, src_mass, eps2=float(eps2), G=G,
                       out=tmp, accumulate=False)
            acc += tmp
        n_tiles = math.ceil(ns / wg_size) if ns else 0
    else:
        lds_pos = ws.take("kernel.lds_pos", (wg_size, 3), dtype)
        lds_mass = ws.take("kernel.lds_mass", (wg_size,), dtype)
        tile = min(wg_size, ns)
        d_buf = ws.take("kernel.d", (nt, tile, 3), dtype)
        r2_buf = ws.take("kernel.r2", (nt, tile), dtype)
        acc_buf = ws.take("kernel.acc", (nt, 3), dtype)
        n_tiles = 0
        for t0 in range(0, ns, wg_size):
            t1 = min(t0 + wg_size, ns)
            k = t1 - t0
            # cooperative load into local memory (barrier), then the tile loop
            lds_pos[:k] = src_pos[t0:t1]
            lds_mass[:k] = src_mass[t0:t1]
            d = d_buf[:, :k]
            np.subtract(lds_pos[np.newaxis, :k, :], targets[:, np.newaxis, :], out=d)
            r2 = r2_buf[:, :k]
            np.einsum("ijk,ijk->ij", d, d, out=r2)
            r2 += eps2
            inv_r3 = r2  # in place: r2 is dead after this point
            np.power(r2, dtype(-1.5), out=inv_r3)
            inv_r3 *= lds_mass[np.newaxis, :k]
            np.einsum("ij,ijk->ik", inv_r3, d, out=acc_buf)
            if G != 1.0:
                acc_buf *= dtype(G)
            acc += acc_buf
            n_tiles += 1

    if counters is not None:
        counters.interactions += nt * ns
        counters.lds_bytes += n_tiles * wg_size * BYTES_PER_BODY
        counters.global_bytes += (
            n_tiles * wg_size * BYTES_PER_BODY  # tile loads
            + nt * BYTES_PER_BODY  # own-body loads
            + nt * BYTES_PER_ACCEL  # acceleration stores
        )
        counters.barriers += 2 * n_tiles
    return acc


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
