"""Multipole acceptance criteria (MAC).

The paper uses the classic Barnes-Hut geometric criterion: a cell of side
length ``l`` at distance ``D`` may be replaced by its monopole when

    l / D < theta

(section 2.2, eq. (3) context).  Two operational variants are needed:

* :class:`PointMAC` — per-target-body distances (the reference
  traversal).
* :class:`GroupMAC` — the multiple-walk variant (Hamada et al. 2009, the
  w/jw plans): one acceptance decision per *group* of bodies, using the
  minimum distance from the group's bounding box to the cell's centre of
  mass.  Because every body in the group is at least that far away, group
  acceptance is conservative: whenever the group accepts a cell, each
  member body would have accepted it individually.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PointMAC", "GroupMAC", "aabb_distance"]

#: Guard distance so a zero-distance cell is never accepted.
_TINY = 1e-300


def aabb_distance(lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from points to the axis-aligned box ``[lo, hi]``.

    Zero for points inside the box.  ``points`` may be ``(3,)`` or ``(k, 3)``.
    The squares are summed as ``(dx*dx + dy*dy) + dz*dz`` in elementwise
    operations — a pinned order the compiled walk traversal repeats, so
    both make identical MAC decisions.
    """
    points = np.asarray(points, dtype=np.float64)
    d = np.maximum(np.maximum(lo - points, 0.0), points - hi)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    return float(dist) if points.ndim == 1 else dist


@dataclass(frozen=True)
class PointMAC:
    """Classic per-body Barnes-Hut criterion ``l / |x - com| < theta``."""

    theta: float = 0.6

    def __post_init__(self) -> None:
        if self.theta <= 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")

    def accept(self, sizes: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Vectorised acceptance mask for cells of ``sizes`` at ``distances``."""
        return np.asarray(sizes) < self.theta * np.maximum(np.asarray(distances), _TINY)


@dataclass(frozen=True)
class GroupMAC:
    """Group (multiple-walk) criterion using box-to-COM minimum distance.

    A cell is accepted for a whole group when ``l < theta * D_min`` where
    ``D_min`` is the distance from the group's bounding box to the cell's
    centre of mass.  Cells whose body range overlaps the group's own body
    range are never accepted (they contain group members, so a monopole
    would introduce a self-force) — the traversal handles that with
    :meth:`never_accept_overlap` semantics.
    """

    theta: float = 0.6

    def __post_init__(self) -> None:
        if self.theta <= 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")

    def accept(
        self,
        sizes: np.ndarray,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        coms: np.ndarray,
    ) -> np.ndarray:
        """Acceptance mask for cells (``sizes``, ``coms``) vs the group box."""
        d = aabb_distance(box_lo, box_hi, coms)
        return np.asarray(sizes) < self.theta * np.maximum(d, _TINY)
