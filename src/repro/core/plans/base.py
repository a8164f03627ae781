"""Plan interface: configuration, per-step timing breakdown, base class.

A *plan* is one point in the PTPM design space — a complete recipe for
evaluating one force pass on the device: how i-bodies, j-bodies and walks
map to work-groups and threads (space), and how host work is sequenced
against device work (time).  Every plan provides

* :meth:`Plan.accelerations` — *functional* execution: real float32
  arithmetic through the simulated kernels, validated against the CPU
  references in the tests; and
* :meth:`Plan.step_breakdown` — *timing* execution: the simulated cost of
  one force step (kernel + host + transfer), derived from the same work
  enumeration, without performing the O(N^2)/O(N L) arithmetic — this is
  what the benchmark sweeps use at large N.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.engine import ExecutionEngine, get_default_engine
from repro.gpu.device import RADEON_HD_5850, DeviceSpec
from repro.gpu.timing import KernelTiming
from repro.core.hostmodel import PENTIUM_E5300, HostCpuModel
from repro.nbody.flops import DEFAULT_FLOPS_PER_INTERACTION
from repro.nbody.forces import DEFAULT_SOFTENING

__all__ = ["PlanConfig", "StepBreakdown", "Plan"]

#: Pass shapes whose simulated cost a process keeps (see ``Plan._priced``).
PRICED_SHAPES = 64

_priced: "OrderedDict[tuple, StepBreakdown]" = OrderedDict()
_priced_lock = threading.Lock()


@dataclass(frozen=True)
class PlanConfig:
    """Shared configuration of all plans.

    ``wg_size`` is the paper's ``p`` (threads per block / tile edge);
    ``theta`` and ``leaf_size`` only affect tree-based plans.
    ``kernel_backend`` pins the force-kernel backend for this plan
    (``None`` follows the process-wide selection — see
    :mod:`repro.nbody.kernels`); it must be a *registered* name, while
    availability is resolved per force pass so configs stay portable
    across hosts.  ``n_rungs`` and ``step_eta`` only affect block-timestep
    plans (``None`` means their defaults: 4 rungs, eta 0.025).
    """

    device: DeviceSpec = RADEON_HD_5850
    host: HostCpuModel = PENTIUM_E5300
    wg_size: int = 256
    softening: float = DEFAULT_SOFTENING
    G: float = 1.0
    theta: float = 0.6
    leaf_size: int = 32
    kernel_backend: str | None = None
    n_rungs: int | None = None
    step_eta: float | None = None

    def __post_init__(self) -> None:
        self.device.validate_workgroup(self.wg_size)
        for name in ("softening", "theta", "G", "step_eta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.softening <= 0.0:
            # Every pass includes each body's self-pair; unsoftened it
            # is 0 * inf = NaN, and every row would come out NaN.
            raise ConfigurationError(
                f"softening must be positive, got {self.softening}"
            )
        if self.theta <= 0.0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if self.leaf_size < 1:
            raise ConfigurationError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if self.n_rungs is not None and not (1 <= self.n_rungs <= 16):
            raise ConfigurationError(f"n_rungs must be in [1, 16], got {self.n_rungs}")
        if self.step_eta is not None and self.step_eta <= 0.0:
            raise ConfigurationError(f"step_eta must be positive, got {self.step_eta}")
        if self.kernel_backend is not None:
            from repro.nbody.kernels import get_backend

            get_backend(self.kernel_backend)  # unknown name -> ConfigurationError


@dataclass
class StepBreakdown:
    """Cost of one force step under a plan.

    ``host_seconds`` is the *overlappable* host work (tree build + walk
    generation); ``serial_seconds`` is host work that cannot overlap the
    kernel (integration update); ``transfer_seconds`` is PCIe traffic.
    ``overlapped`` states whether the plan hides host work behind the
    kernel (jw) or serialises it (w); ``total_seconds`` composes
    accordingly.  An overlapped pass carries ``pipeline_total``, the
    makespan of its host/DMA/device event graph
    (:meth:`~repro.gpu.events.EventGraph.pipelined_step`), which replaces
    host + kernel; a serial pass leaves it ``None``.
    """

    plan: str
    n_bodies: int
    kernel_seconds: float
    host_seconds: float
    transfer_seconds: float
    serial_seconds: float
    overlapped: bool
    interactions: int
    issued_interactions: int
    kernels: list[KernelTiming] = field(default_factory=list)
    pipeline_total: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """End-to-end time of one force step (the paper's "total time")."""
        core = (
            self.pipeline_total
            if self.overlapped
            else self.host_seconds + self.kernel_seconds
        )
        return core + self.transfer_seconds + self.serial_seconds

    def kernel_gflops(
        self, flops_per_interaction: int = DEFAULT_FLOPS_PER_INTERACTION
    ) -> float:
        """Sustained GFLOPS of the device kernels (Fig. 4/5's y-axis)."""
        if self.kernel_seconds <= 0.0:
            return 0.0
        return self.interactions * flops_per_interaction / self.kernel_seconds / 1e9

    def effective_gflops(
        self, flops_per_interaction: int = DEFAULT_FLOPS_PER_INTERACTION
    ) -> float:
        """GFLOPS over the *total* step time (includes host + transfers)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.interactions * flops_per_interaction / self.total_seconds / 1e9


class Plan(ABC):
    """Base class for the four PTPM plans."""

    #: short identifier used in tables ("i", "j", "w", "jw")
    name: str = "?"
    #: "pp" (all-pairs) or "bh" (treecode)
    method: str = "?"

    def __init__(
        self,
        config: PlanConfig | None = None,
        *,
        engine: ExecutionEngine | None = None,
    ) -> None:
        self.config = config or PlanConfig()
        #: execution engine for the functional force path; ``None`` falls
        #: back to :func:`repro.exec.get_default_engine` at call time.
        self.engine = engine

    def _engine(self) -> ExecutionEngine:
        """The engine the functional path dispatches work through."""
        return self.engine if self.engine is not None else get_default_engine()

    def _kernel_backend(self) -> str:
        """The resolved kernel-backend *name* for this force pass.

        Resolved once per pass on the dispatching thread (so unavailable
        selections warn and fall back here, once) and passed to engine
        tasks by name.
        """
        from repro.nbody.kernels import resolve_backend

        return resolve_backend(self.config.kernel_backend).name

    def _priced(
        self, shape: tuple, price: Callable[[], StepBreakdown]
    ) -> StepBreakdown:
        """This pass shape's breakdown, priced by ``price()`` once per
        process.

        An all-pairs pass's simulated cost follows from its space mapping
        alone (PAPER.md's PTPM: work-groups x sources), not from the
        positions, so every pass of one ``shape`` under one plan type and
        config costs the same.  The last :data:`PRICED_SHAPES` shapes are
        kept, so the timing model's own telemetry
        (``kernel_launches_total``, ``kernel_timed``) records a shape once.
        Callers set ``plan`` and ``meta`` on what they get, so each call
        returns its own copy; the frozen kernel timings are shared.
        """
        key = (type(self), self.config, *shape)
        with _priced_lock:
            bd = _priced.get(key)
            if bd is not None:
                _priced.move_to_end(key)
        if bd is None:
            bd = price()
            with _priced_lock:
                _priced[key] = bd
                if len(_priced) > PRICED_SHAPES:
                    _priced.popitem(last=False)
        return replace(bd, kernels=list(bd.kernels), meta=dict(bd.meta))

    def _row_ranges(
        self, rows: int, n_sources: int, backend: str
    ) -> list[tuple[int, int]]:
        """The ``[a, b)`` target-row ranges of an all-pairs pass, one
        engine task each.

        A compiled ``backend`` cuts the pass by its work, each row being
        ``n_sources`` interactions (:meth:`ExecutionEngine.split`).  The
        NumPy reference keeps one range per simulated work-group, so its
        tile temporaries stay ``wg_size`` rows deep.
        """
        from repro.nbody.kernels import get_backend

        if get_backend(backend).kind == "reference":
            p = self.config.wg_size
            return [(a, min(a + p, rows)) for a in range(0, rows, p)]
        return self._engine().split(np.full(rows, n_sources))

    # -- functional ----------------------------------------------------
    @abstractmethod
    def accelerations(self, positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """Compute accelerations through the simulated device kernels.

        Returns float64 ``(n, 3)`` in the caller's body order (arithmetic
        performed in float32, matching the device).
        """

    # -- timing ----------------------------------------------------------
    @abstractmethod
    def step_breakdown(self, positions: np.ndarray, masses: np.ndarray) -> StepBreakdown:
        """Simulated cost of one force step (no force arithmetic)."""

    def compute_step(
        self, positions: np.ndarray, masses: np.ndarray
    ) -> tuple[np.ndarray, StepBreakdown]:
        """One force step: accelerations plus its timing breakdown.

        Subclasses with expensive shared preparation (tree plans) override
        this to prepare once.
        """
        return self.accelerations(positions, masses), self.step_breakdown(
            positions, masses
        )

    def _validate_bodies(
        self, positions: np.ndarray, masses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = np.asarray(positions, dtype=np.float64)
        masses = np.asarray(masses, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ConfigurationError(f"positions must be (n, 3), got {positions.shape}")
        if masses.shape != (positions.shape[0],):
            raise ConfigurationError(
                f"masses must be ({positions.shape[0]},), got {masses.shape}"
            )
        if positions.shape[0] < 1:
            raise ConfigurationError("at least one body required")
        return positions, masses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(wg_size={self.config.wg_size}, device={self.config.device.name!r})"
