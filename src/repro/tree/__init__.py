"""Barnes-Hut treecode substrate.

Morton keys → octree → multipole acceptance → traversal / walk generation
→ list-based force evaluation.  The w-parallel and jw-parallel GPU plans
consume the :class:`~repro.tree.walks.WalkSet` produced here.
"""

from repro.tree.morton import MAX_DEPTH, decode, encode, grid_coordinates, key_octant
from repro.tree.octree import Octree, build_octree
from repro.tree.mac import GroupMAC, PointMAC, aabb_distance
from repro.tree.traversal import TraversalStats, bh_accelerations
from repro.tree.walks import (
    Walk,
    WalkSet,
    cell_groups,
    generate_walks,
    make_groups,
    uniform_groups,
)
from repro.tree.quadrupole import bh_accelerations_quadrupole, quadrupole_moments
from repro.tree.bh_force import (
    accelerations_from_walks,
    max_relative_error,
    rms_relative_error,
    walk_sources,
)

__all__ = [
    "MAX_DEPTH",
    "decode",
    "encode",
    "grid_coordinates",
    "key_octant",
    "Octree",
    "build_octree",
    "GroupMAC",
    "PointMAC",
    "aabb_distance",
    "TraversalStats",
    "bh_accelerations",
    "bh_accelerations_quadrupole",
    "quadrupole_moments",
    "Walk",
    "WalkSet",
    "generate_walks",
    "make_groups",
    "cell_groups",
    "uniform_groups",
    "accelerations_from_walks",
    "max_relative_error",
    "rms_relative_error",
    "walk_sources",
]
