"""Force evaluation from walk interaction lists, and accuracy metrics.

:func:`accelerations_from_walks` is the CPU-side ground truth for what the
w-parallel / jw-parallel device kernels compute: for each walk, a dense
``group x (cells + particles)`` particle-particle evaluation using the
shared physics kernel :func:`repro.nbody.forces.accelerations_from_sources`.
The simulated GPU kernels are validated against this function exactly
(same lists, same arithmetic, float32 vs float64 tolerance), separating
"did the plan compute the right thing" from "is Barnes-Hut accurate".
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.exec.engine import ExecutionEngine, get_default_engine
from repro.exec.workspace import Workspace
from repro.nbody.forces import accelerations_from_sources
from repro.tree.octree import Octree
from repro.tree.walks import Walk, WalkSet

__all__ = [
    "walk_sources",
    "accelerations_from_walks",
    "rms_relative_error",
    "max_relative_error",
]


def walk_sources(
    tree: Octree, walk: Walk, *, workspace: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The dense source array of one walk: cell monopoles then leaf bodies.

    Returns ``(src_pos (L, 3), src_mass (L,))`` with
    ``L == walk.list_length``.  With a ``workspace``, the arrays are views
    into reused scratch buffers (valid until the next call with the same
    workspace) instead of fresh concatenations.
    """
    cl = walk.cell_list
    pl = walk.particle_list
    if workspace is None:
        src_pos = np.concatenate([tree.coms[cl], tree.positions[pl]])
        src_mass = np.concatenate([tree.node_masses[cl], tree.masses[pl]])
        return src_pos, src_mass
    nc = int(cl.size)
    length = nc + int(pl.size)
    src_pos = workspace.take("walk.src_pos", (length, 3), tree.positions.dtype)
    src_mass = workspace.take("walk.src_mass", (length,), tree.masses.dtype)
    src_pos[:nc] = tree.coms[cl]
    src_pos[nc:] = tree.positions[pl]
    src_mass[:nc] = tree.node_masses[cl]
    src_mass[nc:] = tree.masses[pl]
    return src_pos, src_mass


def _walk_task(
    index: int,
    *,
    walks: WalkSet,
    softening: float,
    G: float,
    dtype: np.dtype | type,
    backend: str | None = None,
) -> np.ndarray:
    """Evaluate one walk's group block (runs on an engine worker)."""
    tree = walks.tree
    w = walks[index]
    from repro.exec.workspace import local_workspace

    ws = local_workspace()
    src_pos, src_mass = walk_sources(tree, w, workspace=ws)
    return accelerations_from_sources(
        tree.positions[w.start : w.end],
        src_pos,
        src_mass,
        softening=softening,
        G=G,
        dtype=dtype,
        workspace=ws,
        backend=backend,
    )


def accelerations_from_walks(
    walks: WalkSet,
    *,
    softening: float = 0.0,
    G: float = 1.0,
    dtype: np.dtype | type = np.float64,
    engine: ExecutionEngine | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Accelerations of all bodies from their walks, in **original** body order.

    Walks must cover every body exactly once (which
    :func:`repro.tree.walks.generate_walks` guarantees).  Walk evaluation
    fans out across ``engine`` (default: the process-global engine); walk
    blocks are written back in fixed walk order, so the result is
    bit-identical for every worker count (within one *kernel* backend —
    ``backend`` selects it, resolved here once so an unavailable one
    falls back once, and passed to the tasks by name).
    """
    tree = walks.tree
    eng = engine if engine is not None else get_default_engine()
    from repro.nbody.kernels import resolve_backend

    kernel_backend = resolve_backend(backend).name
    acc_sorted = np.full((tree.n_bodies, 3), np.nan, dtype=np.float64)
    with obs.span(
        "bh_force.walk_eval", n=tree.n_bodies, n_walks=len(walks)
    ) as sp:
        task = partial(
            _walk_task, walks=walks, softening=softening, G=G, dtype=dtype,
            backend=kernel_backend,
        )
        blocks = eng.map(task, range(len(walks)), label="bh.walk")
        for w, block in zip(walks, blocks):
            acc_sorted[w.start : w.end] = block
        sp.set(interactions=walks.total_interactions)
    if np.isnan(acc_sorted).any():
        raise ValueError("walks do not cover every body")
    return tree.unsort(acc_sorted)


def rms_relative_error(acc: np.ndarray, ref: np.ndarray) -> float:
    """RMS of per-body relative force error ``|a - a_ref| / |a_ref|``.

    The standard treecode accuracy metric (the paper quotes ~1% for BH at
    typical theta).
    """
    acc = np.asarray(acc, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if acc.shape != ref.shape:
        raise ValueError(f"shape mismatch: {acc.shape} vs {ref.shape}")
    num = np.linalg.norm(acc - ref, axis=1)
    den = np.linalg.norm(ref, axis=1)
    if np.any(den == 0.0):
        raise ValueError("reference contains zero-force bodies")
    return float(np.sqrt(np.mean((num / den) ** 2)))


def max_relative_error(acc: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-body relative force error."""
    acc = np.asarray(acc, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if acc.shape != ref.shape:
        raise ValueError(f"shape mismatch: {acc.shape} vs {ref.shape}")
    num = np.linalg.norm(acc - ref, axis=1)
    den = np.linalg.norm(ref, axis=1)
    if np.any(den == 0.0):
        raise ValueError("reference contains zero-force bodies")
    return float(np.max(num / den))
