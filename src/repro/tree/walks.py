"""Walk (interaction-list) generation — the multiple-walk treecode substrate.

A *walk* is the unit of GPU work in the w-parallel and jw-parallel plans
(sections 4.2-4.3 of the paper): a spatially-coherent group of bodies that
traverses the tree **together** and shares one interaction list.  The
traversal produces, per walk:

* a **cell list** — tree nodes accepted by the group MAC, evaluated as
  monopoles;
* a **particle list** — bodies of opened leaves, evaluated directly
  (this always includes the group's own bodies, whose softened
  self-interaction is zero).

The host (CPU) generates walks; the device (GPU) evaluates the resulting
dense interactions.  The per-walk interaction counts produced here are what
drives the simulated GPU's timing for the w/jw plans, and evaluating the
lists reproduces the exact arithmetic the device kernels perform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TreeError
from repro.nbody.kernels import get_backend
from repro.tree.mac import GroupMAC
from repro.tree.octree import Octree

__all__ = [
    "Walk",
    "WalkSet",
    "make_groups",
    "cell_groups",
    "uniform_groups",
    "generate_walks",
]


@dataclass(frozen=True)
class Walk:
    """One walk: a body group plus its interaction lists.

    ``start``/``end`` index the tree's Morton-sorted body arrays; the
    cell/particle lists index tree nodes and sorted bodies respectively.
    """

    index: int
    start: int
    end: int
    cell_list: np.ndarray  # node indices accepted as monopoles
    particle_list: np.ndarray  # sorted-body indices summed directly

    @property
    def n_bodies(self) -> int:
        """Number of target bodies in the group."""
        return self.end - self.start

    @property
    def list_length(self) -> int:
        """Sources in the shared interaction list (cells + particles)."""
        return int(self.cell_list.size + self.particle_list.size)

    @property
    def interactions(self) -> int:
        """Body-source force evaluations this walk performs."""
        return self.n_bodies * self.list_length


class WalkSet:
    """All walks for one tree snapshot, stored as CSR arrays.

    Walk ``i`` covers sorted bodies ``groups[i, 0]:groups[i, 1]``; its
    cell list is ``cells[cell_offsets[i]:cell_offsets[i + 1]]`` and its
    particle list ``parts[part_offsets[i]:part_offsets[i + 1]]``.  All
    five arrays are int64.  Indexing or iterating yields :class:`Walk`
    views built on access; the aggregate statistics are array
    expressions over the offsets.
    """

    def __init__(
        self,
        tree: Octree,
        *,
        groups: np.ndarray,
        cell_offsets: np.ndarray,
        cells: np.ndarray,
        part_offsets: np.ndarray,
        parts: np.ndarray,
        theta: float,
    ) -> None:
        self.tree = tree
        self.groups = np.asarray(groups, dtype=np.int64)
        self.cell_offsets = np.asarray(cell_offsets, dtype=np.int64)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.part_offsets = np.asarray(part_offsets, dtype=np.int64)
        self.parts = np.asarray(parts, dtype=np.int64)
        self.theta = theta
        if self.groups.ndim != 2 or self.groups.shape[1] != 2:
            raise ValueError(f"groups must be (k, 2), got {self.groups.shape}")
        k = self.groups.shape[0]
        for name, offsets, entries in (
            ("cell", self.cell_offsets, self.cells),
            ("part", self.part_offsets, self.parts),
        ):
            if offsets.shape != (k + 1,) or offsets[0] != 0 or offsets[-1] != entries.size:
                raise ValueError(
                    f"{name}_offsets must run from 0 to len({name}s) over "
                    f"{k} walks"
                )
            if (np.diff(offsets) < 0).any():
                raise ValueError(f"{name}_offsets must be non-decreasing")

    def __len__(self) -> int:
        return self.groups.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Walk:
        i = range(len(self))[i]
        c0, c1 = self.cell_offsets[i : i + 2]
        p0, p1 = self.part_offsets[i : i + 2]
        return Walk(
            index=i,
            start=int(self.groups[i, 0]),
            end=int(self.groups[i, 1]),
            cell_list=self.cells[c0:c1],
            particle_list=self.parts[p0:p1],
        )

    @property
    def total_interactions(self) -> int:
        """Total body-source evaluations across all walks (one force pass)."""
        return int(self.interactions_per_walk().sum())

    def interactions_per_walk(self) -> np.ndarray:
        """Per-walk interaction counts (the load-balance input)."""
        return self.group_sizes() * self.list_lengths()

    def cell_counts(self) -> np.ndarray:
        """Per-walk cell-list lengths."""
        return np.diff(self.cell_offsets)

    def part_counts(self) -> np.ndarray:
        """Per-walk particle-list lengths."""
        return np.diff(self.part_offsets)

    def list_lengths(self) -> np.ndarray:
        """Per-walk interaction-list lengths."""
        return self.cell_counts() + self.part_counts()

    def group_sizes(self) -> np.ndarray:
        """Per-walk body-group sizes."""
        return self.groups[:, 1] - self.groups[:, 0]

    def body_rows(self, selected: np.ndarray) -> np.ndarray:
        """Sorted-body indices of the ``selected`` walks' groups, in order."""
        sel = self.groups[selected]
        sizes = sel[:, 1] - sel[:, 0]
        first = sel[:, 0] - (np.cumsum(sizes) - sizes)
        return np.repeat(first, sizes) + np.arange(int(sizes.sum()))

    def holding(self, bodies: np.ndarray) -> np.ndarray:
        """Ascending indices of the walks whose group holds any of
        ``bodies`` (indices in the tree's input order)."""
        mask = np.zeros(self.tree.n_bodies, dtype=bool)
        mask[bodies] = True
        hits = np.concatenate([[0], np.cumsum(mask[self.tree.order])])
        return np.flatnonzero(hits[self.groups[:, 1]] > hits[self.groups[:, 0]])

    def load_imbalance(self) -> float:
        """Max over mean of per-walk interactions — 1.0 is perfectly even."""
        work = self.interactions_per_walk()
        mean = work.mean()
        if mean == 0:
            return 1.0
        return float(work.max() / mean)


def uniform_groups(n_bodies: int, group_size: int) -> np.ndarray:
    """Contiguous ``(k, 2)`` ranges of at most ``group_size`` sorted bodies."""
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if n_bodies < 1:
        raise ValueError(f"n_bodies must be >= 1, got {n_bodies}")
    starts = np.arange(0, n_bodies, group_size)
    ends = np.minimum(starts + group_size, n_bodies)
    return np.stack([starts, ends], axis=1)


def make_groups(tree: Octree, max_group_size: int) -> np.ndarray:
    """Body groups aligned to leaf boundaries, each at most ``max_group_size``.

    Walks the leaves in Morton order and packs consecutive leaves while the
    running size stays within the budget; a single oversized leaf (possible
    when ``leaf_size > max_group_size``) is split into uniform chunks.
    Returns ``(k, 2)`` ``[start, end)`` ranges over sorted bodies.
    """
    if max_group_size < 1:
        raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")
    leaves = tree.leaf_nodes()
    leaf_starts = tree.starts[leaves]
    order = np.argsort(leaf_starts)
    groups: list[tuple[int, int]] = []
    cur_start = 0
    cur_end = 0
    for li in leaves[order]:
        s, e = int(tree.starts[li]), int(tree.ends[li])
        if s != cur_end:  # pragma: no cover - leaves tile the body range
            raise TreeError("leaves do not tile the body range")
        if e - s > max_group_size:
            # flush pending group, then split the big leaf uniformly
            if cur_end > cur_start:
                groups.append((cur_start, cur_end))
            for cs in range(s, e, max_group_size):
                groups.append((cs, min(cs + max_group_size, e)))
            cur_start = cur_end = e
            continue
        if e - cur_start > max_group_size:
            groups.append((cur_start, cur_end))
            cur_start = cur_end
        cur_end = e
    if cur_end > cur_start:
        groups.append((cur_start, cur_end))
    return np.asarray(groups, dtype=np.int64)


def cell_groups(tree: Octree, max_group_size: int) -> np.ndarray:
    """Body groups taken directly from tree cells (Hamada-style walks).

    Descends from the root and emits every *maximal* node whose body count
    is at most ``max_group_size``.  This is how the original multiple-walk
    method (and the paper's w-parallel plan) forms walks: groups follow
    the tree geometry, so their sizes vary widely with the local density —
    the source of the ~1/3 lane-utilisation loss the paper attributes to
    w-parallel.  (A node deeper than Morton resolution can exceed the
    budget and is split uniformly.)  Returns ``(k, 2)`` ranges over sorted
    bodies.
    """
    if max_group_size < 1:
        raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")
    counts = tree.node_counts()
    groups: list[tuple[int, int]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        s, e = int(tree.starts[node]), int(tree.ends[node])
        if counts[node] <= max_group_size:
            groups.append((s, e))
            continue
        if tree.is_leaf[node]:
            # oversized leaf (coincident bodies at max Morton depth)
            for cs in range(s, e, max_group_size):
                groups.append((cs, min(cs + max_group_size, e)))
            continue
        for child in tree.children[node]:
            if child >= 0:
                stack.append(int(child))
    groups.sort()
    return np.asarray(groups, dtype=np.int64)


def generate_walks(
    tree: Octree,
    *,
    theta: float = 0.6,
    group_size: int = 256,
    groups: np.ndarray | None = None,
) -> WalkSet:
    """Generate walks (interaction lists) for every body group.

    In the group traversal a node is

    * **accepted** (cell list) when the group MAC holds *and* its body
      range does not overlap the group's own range;
    * sent to the **particle list** when it is a leaf that was not
      accepted;
    * **opened** otherwise.

    The traversal runs in the compiled ``cext`` library whenever it
    loads, and otherwise in :func:`_numpy_walk_lists`, the reference it
    is tested against: both emit the same lists in the same order.
    """
    mac = GroupMAC(theta)
    if groups is None:
        groups = make_groups(tree, group_size)
    groups = np.ascontiguousarray(groups, dtype=np.int64)
    if groups.ndim != 2 or groups.shape[1] != 2:
        raise ValueError(f"groups must be (k, 2), got {groups.shape}")
    bad = np.flatnonzero(
        (groups[:, 0] < 0) | (groups[:, 0] >= groups[:, 1])
        | (groups[:, 1] > tree.n_bodies)
    )
    if bad.size:
        gs, ge = groups[bad[0]]
        raise ValueError(f"group [{gs},{ge}) out of range")

    cext = get_backend("cext")
    if cext.available:
        lists = cext.walk_lists(
            positions=tree.positions, starts=tree.starts, ends=tree.ends,
            children=tree.children, is_leaf=tree.is_leaf,
            sizes=tree.node_sizes(), coms=tree.coms, groups=groups, theta=theta,
        )
    else:
        lists = _numpy_walk_lists(tree, groups, mac)
    cell_offsets, cells, part_offsets, parts = lists
    return WalkSet(
        tree, groups=groups, cell_offsets=cell_offsets, cells=cells,
        part_offsets=part_offsets, parts=parts, theta=theta,
    )


def _numpy_walk_lists(
    tree: Octree, groups: np.ndarray, mac: GroupMAC
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The reference traversal: CSR lists from a frontier-vectorised loop.

    Each iteration classifies a group's whole frontier of candidate nodes
    at once; opened nodes contribute their children, in octant order, to
    the next frontier.
    """
    sizes = tree.node_sizes()
    cells: list[np.ndarray] = []
    parts: list[np.ndarray] = []
    cell_counts = np.zeros(len(groups), dtype=np.int64)
    part_counts = np.zeros(len(groups), dtype=np.int64)
    for widx, (gs, ge) in enumerate(groups):
        gpos = tree.positions[gs:ge]
        lo = gpos.min(axis=0)
        hi = gpos.max(axis=0)
        frontier = np.array([tree.root], dtype=np.int64)
        while frontier.size:
            ok = mac.accept(sizes[frontier], lo, hi, tree.coms[frontier])
            # never approximate a node containing group members
            overlap = (tree.starts[frontier] < ge) & (tree.ends[frontier] > gs)
            ok &= ~overlap
            accepted = frontier[ok]
            if accepted.size:
                cells.append(accepted)
                cell_counts[widx] += accepted.size
            rest = frontier[~ok]
            if not rest.size:
                break
            leaf = tree.is_leaf[rest]
            for li in rest[leaf]:
                parts.append(np.arange(tree.starts[li], tree.ends[li], dtype=np.int64))
                part_counts[widx] += parts[-1].size
            opened = rest[~leaf]
            if opened.size:
                kids = tree.children[opened].ravel()
                frontier = kids[kids >= 0]
            else:
                frontier = np.empty(0, dtype=np.int64)

    def csr(counts: np.ndarray, chunks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return offsets, flat

    return (*csr(cell_counts, cells), *csr(part_counts, parts))
