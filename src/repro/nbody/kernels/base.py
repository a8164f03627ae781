"""The kernel-backend contract every force backend implements.

A *kernel backend* owns the innermost arithmetic of the force paths —
the dense ``targets x sources`` rectangle every higher-level schedule
(direct PP, blocked self-interaction, Barnes-Hut leaf/walk evaluation)
reduces to.  The NumPy reference backend defines the semantics; compiled
backends (the C extension) may reassociate the summation and use fused
reciprocal square roots, so they are *not* bit-identical to the
reference — they are validated
against it by the :class:`~repro.check.DifferentialOracle` under the
documented compiled-axis tolerances instead.

Two kernels cover every call site:

* :meth:`KernelBackend.sources` — accelerations exerted by a dense
  source set on a target set (the direct-sum and BH-leaf kernel);
* :meth:`KernelBackend.self_forces` — all-pairs accelerations of a set
  on itself with the ``i == j`` diagonal excluded (the blocked
  self-interaction kernel), including the zero-softening coincident-pair
  error contract of :func:`repro.nbody.forces.direct_forces`.

Array contract: ``targets``/``src_pos`` are C-contiguous ``(n, 3)``
arrays of the arithmetic dtype, ``src_mass`` a matching ``(n,)`` array;
``eps2`` is the softening *already squared in float64* (callers cast to
the arithmetic dtype exactly once — see the eps2 policy note in
:mod:`repro.nbody.forces`).  ``out`` is written in place: overwritten,
or added to when ``accumulate`` is true.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

__all__ = ["KernelBackend", "CoincidentPairError"]


class CoincidentPairError(ValueError):
    """Coincident distinct bodies with zero softening: no finite force.

    Carries the offending ``(i, j)`` body-index pairs so the caller can
    report *which* bodies collided rather than just that one did.
    """

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self.pairs = pairs
        shown = ", ".join(f"({i}, {j})" for i, j in pairs[:8])
        more = f" and {len(pairs) - 8} more" if len(pairs) > 8 else ""
        super().__init__(
            "coincident distinct bodies with zero softening have undefined "
            f"force: pairs {shown}{more}"
        )


class KernelBackend(ABC):
    """One implementation of the innermost force arithmetic."""

    #: registry name ("numpy", "cext", ...)
    name: str = "?"
    #: "reference" or "compiled"
    kind: str = "?"

    @property
    @abstractmethod
    def available(self) -> bool:
        """Whether this backend can run on this host right now."""

    @property
    def unavailable_reason(self) -> str | None:
        """Why :attr:`available` is false (``None`` when available)."""
        return None

    # -- kernels ---------------------------------------------------------
    @abstractmethod
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
        """Dense ``targets x sources`` accelerations into ``out``."""

    @abstractmethod
    def self_forces(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
    ) -> np.ndarray:
        """All-pairs self accelerations, diagonal excluded, into ``out``.

        Raises :class:`CoincidentPairError` when ``eps2 == 0`` and two
        distinct bodies coincide.
        """

    # -- introspection ---------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-friendly description (name, kind, availability)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "available": self.available,
            "unavailable_reason": self.unavailable_reason,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "available" if self.available else "unavailable"
        return f"{type(self).__name__}({self.name!r}, {state})"
