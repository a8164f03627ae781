"""Time-step control: the acceleration criterion and block rungs.

This module provides the standard softened-gravity criterion

    dt_i = eta * sqrt(eps / |a_i|)

(the dimensionally natural time for a body to cross the softening length
under its current acceleration) and :class:`BlockTimestepSchedule` —
the hierarchical power-of-two *block* timestep system (Aarseth-style
individual steps quantised to rungs, as in GADGET/GOTHIC): every body
sits on a rung ``r`` stepping at ``dt_max / 2**r``, rungs advance
together in blocks, and only the rungs whose step ends at a given
substep boundary pay for a force evaluation there.  The paper's own
runs use one fixed step, which is the one-rung case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["acceleration_timestep", "BlockTimestepSchedule"]


def acceleration_timestep(
    accelerations: np.ndarray, *, softening: float, eta: float = 0.025
) -> np.ndarray:
    """Per-body time steps ``eta * sqrt(eps / |a|)``.

    Bodies with zero acceleration get ``inf`` (they impose no constraint).
    """
    if softening <= 0.0:
        raise ConfigurationError(
            f"softening must be positive for this criterion, got {softening}"
        )
    if eta <= 0.0:
        raise ConfigurationError(f"eta must be positive, got {eta}")
    a = np.linalg.norm(np.asarray(accelerations, dtype=np.float64), axis=1)
    with np.errstate(divide="ignore"):
        dt = eta * np.sqrt(softening / a)
    return dt


@dataclass(frozen=True)
class BlockTimestepSchedule:
    """Power-of-two hierarchical block timesteps.

    Rung ``r`` (``0 <= r < n_rungs``) steps with ``dt_max / 2**r``; the
    finest rung defines the substep granularity ``dt_min`` and one *sync
    interval* spans ``2**(n_rungs - 1)`` substeps, after which every
    rung's step boundary coincides and the whole system is synchronised.

    A rung-``r`` step spans ``2**(n_rungs - 1 - r)`` substeps and may
    only begin at substep indices that are multiples of its span — the
    *block* alignment that makes the hierarchy nest.  The per-body
    criterion is the softened-gravity one of
    :func:`acceleration_timestep`; rung re-assignment happens when a
    body's own step closes, moving to a shorter step immediately but to
    a longer one only when the longer block is aligned
    (:meth:`min_rung_at`).

    All operations are vectorised and elementwise per body, so rung
    assignment is deterministic and permutation-equivariant by
    construction (the property suite checks both).
    """

    dt_max: float
    n_rungs: int = 4
    eta: float = 0.025
    softening: float = 1e-2

    def __post_init__(self) -> None:
        if self.dt_max <= 0.0 or not np.isfinite(self.dt_max):
            raise ConfigurationError(f"dt_max must be positive, got {self.dt_max}")
        if not (1 <= self.n_rungs <= 16):
            raise ConfigurationError(
                f"n_rungs must be in [1, 16], got {self.n_rungs}"
            )
        if self.eta <= 0.0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.softening <= 0.0:
            raise ConfigurationError(
                "block timesteps use the softened-gravity criterion; "
                f"softening must be positive, got {self.softening}"
            )

    # -- geometry ----------------------------------------------------------
    @property
    def n_substeps(self) -> int:
        """Substeps per sync interval (``2**(n_rungs - 1)``)."""
        return 1 << (self.n_rungs - 1)

    @property
    def dt_min(self) -> float:
        """The finest rung's step — the substep granularity."""
        return self.dt_max / self.n_substeps

    def span(self, rungs: np.ndarray | int) -> np.ndarray | int:
        """How many substeps one step of each rung covers."""
        return 1 << (self.n_rungs - 1 - np.asarray(rungs))

    def rung_dt(self, rungs: np.ndarray) -> np.ndarray:
        """Per-body step sizes ``dt_max / 2**r`` (exact: powers of two)."""
        return self.dt_max * np.exp2(-np.asarray(rungs, dtype=np.float64))

    def is_sync(self, substep: int) -> bool:
        """Whether ``substep`` is a full-synchronisation boundary."""
        return substep % self.n_substeps == 0

    # -- rung membership over time ----------------------------------------
    def begins(self, rungs: np.ndarray, substep: int) -> np.ndarray:
        """Bodies whose own step *begins* at substep index ``substep``."""
        return (substep % self.span(rungs)) == 0

    def closes(self, rungs: np.ndarray, boundary: int) -> np.ndarray:
        """Bodies whose own step *closes* at substep boundary ``boundary``.

        These are the *active* bodies of the substep ending there — the
        only ones that need a fresh force evaluation.  Every rung closes
        at every multiple of its span, so rung ``r`` hits exactly the
        ``2**(n_rungs - 1 - r)``-aligned boundaries and *all* rungs close
        together at sync boundaries.
        """
        return (boundary % self.span(rungs)) == 0

    def min_rung_at(self, substep: int) -> int:
        """The longest-step (smallest) rung whose block is aligned here.

        A move to rung ``r`` is only allowed at substep indices divisible
        by ``span(r)``; the allowed rungs at a given index form an up-set
        whose minimum this returns (0 at sync boundaries).
        """
        s = substep % self.n_substeps
        if s == 0:
            return 0
        # trailing zero bits of s bound how coarse an aligned block can be
        tz = (s & -s).bit_length() - 1
        return max(0, self.n_rungs - 1 - tz)

    # -- assignment --------------------------------------------------------
    def rungs_from_timesteps(self, dt_body: np.ndarray) -> np.ndarray:
        """Desired rung per body: the longest step not exceeding its dt.

        Bodies whose criterion allows more than ``dt_max`` sit on rung 0;
        bodies tighter than the finest rung are clamped to it (the
        schedule cannot resolve them — pick a smaller ``dt_max`` or more
        rungs).
        """
        dt_body = np.asarray(dt_body, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            ratio = self.dt_max / dt_body
        r = np.ceil(np.log2(np.maximum(ratio, 1.0)))
        r = np.where(np.isfinite(r), r, self.n_rungs - 1)
        return np.clip(r, 0, self.n_rungs - 1).astype(np.int64)

    def assign(self, accelerations: np.ndarray) -> np.ndarray:
        """Initial rung assignment from a full force pass (sync point)."""
        dt_body = acceleration_timestep(
            accelerations, softening=self.softening, eta=self.eta
        )
        return self.rungs_from_timesteps(dt_body)

    def update(
        self,
        rungs: np.ndarray,
        accelerations: np.ndarray,
        active: np.ndarray,
        substep: int,
    ) -> np.ndarray:
        """Re-assign the rungs of ``active`` bodies whose step just closed.

        ``accelerations`` holds the fresh ``(len(active), 3)`` rows for
        the active bodies.  Moving to a shorter step is immediate; moving
        to a longer one is limited by block alignment at ``substep``
        (:meth:`min_rung_at`).  Returns a new rung array; the input is
        not mutated.
        """
        active = np.asarray(active)
        dt_body = acceleration_timestep(
            accelerations, softening=self.softening, eta=self.eta
        )
        desired = self.rungs_from_timesteps(dt_body)
        out = np.array(rungs, dtype=np.int64, copy=True)
        out[active] = np.maximum(desired, self.min_rung_at(substep))
        return out

    # -- introspection -----------------------------------------------------
    def occupancy(self, rungs: np.ndarray) -> np.ndarray:
        """Body count per rung (length ``n_rungs``)."""
        return np.bincount(
            np.asarray(rungs, dtype=np.int64), minlength=self.n_rungs
        )

    def to_dict(self) -> dict:
        return {
            "dt_max": self.dt_max,
            "n_rungs": self.n_rungs,
            "eta": self.eta,
            "softening": self.softening,
        }
