"""The NumPy reference backend: blocked, vectorised, bit-stable.

The blocked loops here *are* the library's force semantics.  They keep
the operation order and the workspace buffer keys of the force paths
they were lifted from, so the ``numpy`` backend is bit-identical to the
pre-seam force paths and to the simulated device's tile loop (guarded by
tests/test_kernels.py).

``block`` is the tile width: each pass evaluates ``block`` source
columns against every target, bounding the temporaries to
``nt x block``.  The force entry points pass their ``block`` argument
through, and the plans pass the work-group size ``p``, so one call runs
the device's ``p``-wide tile loop operation for operation.  Temporaries
come from the calling thread's
:func:`~repro.exec.workspace.local_workspace`, so steady-state passes
allocate nothing.
"""

from __future__ import annotations

import numpy as np

from repro.exec.workspace import local_workspace
from repro.nbody.kernels.base import CoincidentPairError, KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """The reference backend: always available, defines the semantics."""

    name = "numpy"
    kind = "reference"

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
        block: int = 2048,
    ) -> np.ndarray:
        """The blocked ``targets x sources`` loop, ``block`` columns a pass.

        ``eps2`` is the float64 squared softening; the in-place
        ``r2 += eps2`` rounds it to the arithmetic dtype exactly once (the
        square-then-cast policy).  ``G`` scales each block's partial
        before it is added.
        """
        if not accumulate:
            out[:] = 0.0
        ws = local_workspace()
        dtype = out.dtype
        nt = targets.shape[0]
        ns = src_pos.shape[0]
        nb = min(block, ns)
        d_buf = ws.take("forces.d", (nt, nb, 3), dtype)
        r2_buf = ws.take("forces.r2", (nt, nb), dtype)
        w_buf = ws.take("forces.inv_r3", (nt, nb), dtype)
        acc_buf = ws.take("forces.acc", (nt, 3), dtype)
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
                acc_buf *= dtype.type(G)
            out += acc_buf
        return out

    def self_forces(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
        block: int = 2048,
    ) -> np.ndarray:
        """All-pairs self loop with the diagonal excluded, ``block``
        columns a pass.

        With ``eps2 == 0`` any off-diagonal zero distance is a coincident
        distinct pair: each block is validated *before* its contribution
        is accumulated, and :class:`CoincidentPairError` names the
        offending global ``(i, j)`` body pairs — so a bad pair in a late
        block cannot be masked by (or misattributed to) earlier,
        already-summed blocks.
        """
        ws = local_workspace()
        dtype = out.dtype
        out[:] = 0.0
        if G != 1.0:
            masses = masses * dtype.type(G)
        n = positions.shape[0]
        nb = min(block, n)
        d_buf = ws.take("forces.d", (n, nb, 3), dtype)
        r2_buf = ws.take("forces.r2", (n, nb), dtype)
        acc_buf = ws.take("forces.acc", (n, 3), dtype)
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
