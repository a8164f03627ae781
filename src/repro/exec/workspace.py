"""Preallocated, dtype-keyed scratch buffers for the force hot paths.

The NumPy reference kernels need the same family of temporaries on every
pass — the ``(nt, block, 3)`` displacement cube ``d``, the ``(nt, block)``
``r2`` / ``inv_r3`` planes, the partial-sum accumulator — and the tree
plans gather each walk's sources into reused arrays.
Allocating them fresh each pass (the pre-``repro.exec`` behaviour) puts a
page-fault-heavy ``malloc``/``free`` cycle inside the innermost loop; a
:class:`Workspace` instead hands out views into capacity buffers that are
allocated once and reused for the life of the worker, so steady-state
force passes allocate nothing.

Buffers are keyed by ``(name, dtype)``: asking for ``("d", float64)`` and
``("d", float32)`` yields independent storage, and a request larger than
the cached capacity grows the buffer (never shrinks).  A workspace is
**not** thread-safe — it is per-worker state.  :func:`local_workspace`
returns a thread-local instance, which is the one the force kernels draw
from (the force entry points take no workspace argument); every thread
(including the pool workers of :class:`repro.exec.engine.ExecutionEngine`)
therefore gets its own buffers without any locking on the hot path.

Contract for :meth:`Workspace.take`: the returned view is valid until the
next ``take`` of the *same key* — callers use distinct keys for buffers
that are live simultaneously, and must not return workspace views to
their own callers.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Any

import numpy as np

__all__ = [
    "Workspace",
    "local_workspace",
    "reset_local_workspace",
    "total_workspace_bytes",
]

#: Live workspaces, for the ``workspace_bytes`` gauge.  Weak so that
#: short-lived workspaces (tests) do not pin memory.
_REGISTRY: "weakref.WeakSet[Workspace]" = weakref.WeakSet()
_REGISTRY_LOCK = threading.Lock()

_tls = threading.local()


class Workspace:
    """A dtype-keyed cache of scratch buffers (one per worker)."""

    def __init__(self, name: str = "ws", *, register: bool = True) -> None:
        self.name = name
        self._buffers: dict[tuple[str, str], np.ndarray] = {}
        #: total ``take`` calls served
        self.requests = 0
        #: requests that had to allocate or grow a capacity buffer
        self.allocations = 0
        if register:
            with _REGISTRY_LOCK:
                _REGISTRY.add(self)

    # ------------------------------------------------------------------
    def take(
        self,
        key: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """An **uninitialised** scratch array of ``shape``, reusing storage.

        The view aliases the capacity buffer registered under
        ``(key, dtype)``; contents are whatever the previous user left.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        size = math.prod(shape)
        bkey = (key, dt.str)
        buf = self._buffers.get(bkey)
        self.requests += 1
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dt)
            self._buffers[bkey] = buf
            self.allocations += 1
        return buf[:size].reshape(shape)

    def zeros(
        self,
        key: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Like :meth:`take` but zero-filled (an accumulator)."""
        out = self.take(key, shape, dtype)
        out[...] = 0
        return out

    def cast(self, key: str, arr: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
        """``arr`` converted to ``dtype`` without a fresh allocation.

        Returns ``arr`` itself when it already has the target dtype,
        otherwise copies it into the workspace buffer ``key``.
        """
        dt = np.dtype(dtype)
        if arr.dtype == dt:
            return arr
        out = self.take(key, arr.shape, dt)
        np.copyto(out, arr, casting="unsafe")
        return out

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held across all capacity buffers."""
        return sum(b.nbytes for b in self._buffers.values())

    @property
    def n_buffers(self) -> int:
        """Number of distinct ``(key, dtype)`` capacity buffers."""
        return len(self._buffers)

    def stats(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of this workspace's accounting."""
        return {
            "name": self.name,
            "nbytes": self.nbytes,
            "n_buffers": self.n_buffers,
            "requests": self.requests,
            "allocations": self.allocations,
        }

    def clear(self) -> None:
        """Release all capacity buffers (counters are kept)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace({self.name!r}, buffers={self.n_buffers}, "
            f"nbytes={self.nbytes}, allocations={self.allocations})"
        )


# ---------------------------------------------------------------------------
# Thread-local default workspaces
# ---------------------------------------------------------------------------

def local_workspace() -> Workspace:
    """The calling thread's workspace (created on first use)."""
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = Workspace(name=f"ws/{threading.current_thread().name}")
        _tls.ws = ws
    return ws


def reset_local_workspace() -> None:
    """Drop the calling thread's workspace (a fresh one forms on next use)."""
    _tls.ws = None


# ---------------------------------------------------------------------------
# Fleet-wide accounting (the ``workspace_bytes`` gauge)
# ---------------------------------------------------------------------------

def total_workspace_bytes() -> int:
    """Bytes held by every live registered workspace."""
    with _REGISTRY_LOCK:
        return sum(ws.nbytes for ws in _REGISTRY)
