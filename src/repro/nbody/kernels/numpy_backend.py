"""The NumPy reference backend: blocked, vectorised, bit-stable.

The blocked loops here *are* the library's force semantics — they were
lifted verbatim from :mod:`repro.nbody.forces` when the backend seam was
introduced, keeping the same operation order and the same workspace
buffer keys, so the ``numpy`` backend is bit-identical to the
pre-seam force paths (guarded by tests/test_kernels.py).

:func:`blocked_sources` / :func:`blocked_self` are the raw loops the
force entry points call directly on the numpy path (they validate and
manage ``out`` themselves); :class:`NumpyBackend` wraps them behind the
:class:`~repro.nbody.kernels.base.KernelBackend` contract for symmetric
use alongside the compiled backends.
"""

from __future__ import annotations

import numpy as np

from repro.exec.workspace import Workspace, local_workspace
from repro.nbody.kernels.base import CoincidentPairError, KernelBackend

__all__ = ["NumpyBackend", "blocked_sources", "blocked_self"]


def blocked_sources(
    targets: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    *,
    eps2: float,
    G: float = 1.0,
    dtype: np.dtype,
    block: int,
    out: np.ndarray,
    workspace: Workspace,
    key: str = "forces",
) -> np.ndarray:
    """The blocked ``targets x sources`` loop; accumulates into ``out``.

    ``eps2`` is the float64 squared softening; the in-place ``r2 += eps2``
    rounds it to the arithmetic dtype exactly once (the square-then-cast
    policy).  ``G`` scales each block's partial before it is added.
    ``key`` namespaces the scratch buffers so callers with different
    blocking (force path vs device tile loop) do not thrash each other's
    capacity buffers.
    """
    nt = targets.shape[0]
    ns = src_pos.shape[0]
    nb = min(block, ns)
    d_buf = workspace.take(f"{key}.d", (nt, nb, 3), dtype)
    r2_buf = workspace.take(f"{key}.r2", (nt, nb), dtype)
    w_buf = workspace.take(f"{key}.inv_r3", (nt, nb), dtype)
    acc_buf = workspace.take(f"{key}.acc", (nt, 3), dtype)
    for s0 in range(0, ns, block):
        s1 = min(s0 + block, ns)
        k = s1 - s0
        # (nt, k, 3) displacement block
        d = d_buf[:, :k]
        np.subtract(src_pos[s0:s1][np.newaxis, :, :], targets[:, np.newaxis, :], out=d)
        r2 = r2_buf[:, :k]
        np.einsum("ijk,ijk->ij", d, d, out=r2)
        r2 += eps2
        inv_r3 = w_buf[:, :k]
        np.power(r2, -1.5, out=inv_r3)
        inv_r3 *= src_mass[s0:s1][np.newaxis, :]  # becomes the weight w
        np.einsum("ij,ijk->ik", inv_r3, d, out=acc_buf)
        if G != 1.0:
            acc_buf *= acc_buf.dtype.type(G)
        out += acc_buf
    return out


def blocked_self(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    eps2: float,
    dtype: np.dtype,
    block: int,
    out: np.ndarray,
    workspace: Workspace,
) -> np.ndarray:
    """All-pairs self loop with the diagonal excluded; accumulates into ``out``.

    With ``eps2 == 0`` any off-diagonal zero distance is a coincident
    distinct pair: each block is validated *before* its contribution is
    accumulated, and :class:`CoincidentPairError` names the offending
    global ``(i, j)`` body pairs — so a bad pair in a late block cannot
    be masked by (or misattributed to) earlier, already-summed blocks.
    """
    n = positions.shape[0]
    nb = min(block, n)
    d_buf = workspace.take("forces.d", (n, nb, 3), dtype)
    r2_buf = workspace.take("forces.r2", (n, nb), dtype)
    acc_buf = workspace.take("forces.acc", (n, 3), dtype)
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        k = s1 - s0
        d = d_buf[:, :k]
        np.subtract(
            positions[s0:s1][np.newaxis, :, :], positions[:, np.newaxis, :], out=d
        )
        r2 = r2_buf[:, :k]
        np.einsum("ijk,ijk->ij", d, d, out=r2)
        r2 += eps2
        rows = np.arange(s0, s1)
        # Masking via +inf: inf**-1.5 == 0.0 exactly, so the diagonal
        # contributes nothing — same result as zeroing inv_r3 afterwards.
        r2[rows, rows - s0] = np.inf
        if eps2 == 0.0 and not np.all(r2 > 0.0):
            tgt, src = np.nonzero(~(r2 > 0.0))
            raise CoincidentPairError(
                [(int(i), int(s0 + j)) for i, j in zip(tgt, src)]
            )
        inv_r3 = r2  # reciprocal in place; r2 is not needed afterwards
        np.power(r2, -1.5, out=inv_r3)
        inv_r3 *= masses[s0:s1][np.newaxis, :]
        np.einsum("ij,ijk->ik", inv_r3, d, out=acc_buf)
        out += acc_buf
    return out


class NumpyBackend(KernelBackend):
    """The reference backend: always available, defines the semantics."""

    name = "numpy"
    kind = "reference"

    #: Source columns per blocked pass (bounds scratch to ``nt x block``).
    block = 2048

    @property
    def available(self) -> bool:
        return True

    def sources(
        self,
        targets: np.ndarray,
        src_pos: np.ndarray,
        src_mass: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
        accumulate: bool = False,
    ) -> np.ndarray:
        dtype = out.dtype
        ws = local_workspace()
        if not accumulate:
            out[:] = 0.0
        return blocked_sources(
            targets, src_pos, src_mass,
            eps2=eps2, G=G, dtype=dtype, block=self.block, out=out, workspace=ws,
        )

    def self_forces(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
    ) -> np.ndarray:
        dtype = out.dtype
        ws = local_workspace()
        out[:] = 0.0
        if G != 1.0:
            masses = masses * dtype.type(G)
        return blocked_self(
            positions, masses,
            eps2=eps2, dtype=dtype, block=self.block, out=out, workspace=ws,
        )
