"""SIMT wavefront accounting: the wavefronts a work-group issues.

On a SIMT device a work-group executes as ``ceil(T / wavefront)`` lock-step
wavefronts.  Lanes beyond the active work count still occupy issue slots
*within* a partially-filled wavefront, while entirely-empty wavefronts are
simply never issued.  These two facts produce the w-parallel plan's
characteristic ~1/3 efficiency loss the paper discusses (walks rarely fill
the work-group), and they are what the jw plan's j-splitting repairs.
"""

from __future__ import annotations

import math

__all__ = ["active_wavefronts"]


def active_wavefronts(active_items: int, wavefront_size: int) -> int:
    """Wavefronts that must issue to cover ``active_items`` work-items."""
    if wavefront_size < 1:
        raise ValueError(f"wavefront_size must be >= 1, got {wavefront_size}")
    if active_items < 0:
        raise ValueError(f"active_items must be >= 0, got {active_items}")
    return math.ceil(active_items / wavefront_size)
