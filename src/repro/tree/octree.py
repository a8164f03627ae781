"""Array-based octree built over Morton-sorted bodies.

Construction follows the standard GPU-treecode recipe (Hamada et al. 2009;
Bonsai, and the sparse octree of Bédorf, Gaburov & Portegies Zwart):
bodies are sorted by Morton key once, after which every node of the
octree covers a contiguous slice ``[start, end)`` of the sorted body
array.  Node child boundaries are found by binary search on the key
array, and centre-of-mass moments come from prefix sums, so the build is
O(N + M log N) for M nodes.  The whole build — bounds, key encode, a
stable LSD radix sort, the gathers, the prefix sums, the node loop and
the moments — is one call into the compiled ``cext`` library when that
loads.  The NumPy build (vectorised encode, a stable ``argsort`` and a
Python node loop) is its reference and the path used without a C
compiler.

The resulting :class:`Octree` stores all node attributes as flat NumPy
arrays (structure-of-arrays), which is what the traversal kernels and the
simulated GPU plans consume.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import TreeError
from repro.nbody.kernels import get_backend
from repro.tree import morton

__all__ = ["Octree", "build_octree"]

_OCTANT_OFFSETS = np.array(
    [
        [(o >> 2) & 1, (o >> 1) & 1, o & 1]  # x is the high bit, matching morton.encode
        for o in range(8)
    ],
    dtype=np.float64,
) * 2.0 - 1.0  # map {0,1} -> {-1,+1}


class Octree:
    """An immutable octree over a snapshot of body positions.

    Attributes (all NumPy arrays, ``M`` = node count, ``N`` = body count):

    ``centers (M, 3)``, ``half_widths (M,)``
        Geometric cube of each node.
    ``starts (M,)``, ``ends (M,)``
        Contiguous body range (in Morton order) covered by each node.
    ``children (M, 8)``
        Child node indices, ``-1`` where absent.  Leaves have all ``-1``.
    ``is_leaf (M,)``
        Boolean leaf mask.
    ``depths (M,)``
        Node depth, root = 0.
    ``coms (M, 3)``, ``node_masses (M,)``
        Monopole moments (mass-weighted mean position, total mass).
    ``positions (N, 3)``, ``masses (N,)``, ``keys (N,)``, ``order (N,)``
        Bodies in Morton order; ``order[i]`` is the original index of
        sorted body ``i``.
    """

    def __init__(
        self,
        *,
        centers: np.ndarray,
        half_widths: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        children: np.ndarray,
        is_leaf: np.ndarray,
        depths: np.ndarray,
        coms: np.ndarray,
        node_masses: np.ndarray,
        positions: np.ndarray,
        masses: np.ndarray,
        keys: np.ndarray,
        order: np.ndarray,
        leaf_size: int,
    ) -> None:
        self.centers = centers
        self.half_widths = half_widths
        self.starts = starts
        self.ends = ends
        self.children = children
        self.is_leaf = is_leaf
        self.depths = depths
        self.coms = coms
        self.node_masses = node_masses
        self.positions = positions
        self.masses = masses
        self.keys = keys
        self.order = order
        self.leaf_size = leaf_size

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of octree nodes (including the root)."""
        return self.centers.shape[0]

    @property
    def n_bodies(self) -> int:
        """Number of bodies the tree was built over."""
        return self.positions.shape[0]

    @property
    def root(self) -> int:
        """Index of the root node (always 0)."""
        return 0

    def node_counts(self) -> np.ndarray:
        """Bodies per node, shape ``(M,)``."""
        return self.ends - self.starts

    def node_sizes(self) -> np.ndarray:
        """Side length ``l`` of each node's cube (the BH criterion's ``l``)."""
        return 2.0 * self.half_widths

    def leaf_nodes(self) -> np.ndarray:
        """Indices of all leaf nodes."""
        return np.flatnonzero(self.is_leaf)

    def unsort(self, values_sorted: np.ndarray) -> np.ndarray:
        """Scatter per-sorted-body values back to the original body order."""
        out = np.empty_like(values_sorted)
        out[self.order] = values_sorted
        return out

    def max_depth(self) -> int:
        """Deepest node level present in the tree."""
        return int(self.depths.max())

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`TreeError` on violation.

        Intended for tests and debugging — O(N + M) work.
        """
        m = self.n_nodes
        if self.starts[0] != 0 or self.ends[0] != self.n_bodies:
            raise TreeError("root must cover the whole body range")
        for i in range(m):
            s, e = int(self.starts[i]), int(self.ends[i])
            if not 0 <= s < e <= self.n_bodies:
                raise TreeError(f"node {i} has empty or out-of-range body span [{s},{e})")
            kids = self.children[i][self.children[i] >= 0]
            if self.is_leaf[i]:
                if kids.size:
                    raise TreeError(f"leaf {i} has children")
                continue
            if not kids.size:
                raise TreeError(f"internal node {i} has no children")
            spans = sorted((int(self.starts[k]), int(self.ends[k])) for k in kids)
            cursor = s
            for ks, ke in spans:
                if ks != cursor:
                    raise TreeError(f"children of node {i} do not tile its span")
                cursor = ke
            if cursor != e:
                raise TreeError(f"children of node {i} do not cover its span")
            for k in kids:
                if self.half_widths[k] > self.half_widths[i] * 0.5 + 1e-12:
                    raise TreeError(f"child {int(k)} of {i} is not half-sized")
                if self.depths[k] != self.depths[i] + 1:
                    raise TreeError(f"child {int(k)} of {i} has wrong depth")
        # geometric containment of bodies and COMs
        lo = self.centers - self.half_widths[:, np.newaxis]
        hi = self.centers + self.half_widths[:, np.newaxis]
        pad = 1e-9 * (1.0 + np.abs(self.centers).max())
        for i in range(m):
            s, e = int(self.starts[i]), int(self.ends[i])
            p = self.positions[s:e]
            if (p < lo[i] - pad).any() or (p > hi[i] + pad).any():
                raise TreeError(f"node {i} contains bodies outside its cube")
            if (self.coms[i] < lo[i] - pad).any() or (self.coms[i] > hi[i] + pad).any():
                raise TreeError(f"node {i} COM outside its cube")
        # monopole consistency at the root
        total = float(self.masses.sum())
        if not np.isclose(self.node_masses[0], total, rtol=1e-12):
            raise TreeError("root mass does not equal total body mass")


def build_octree(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    leaf_size: int = 32,
    center: np.ndarray | None = None,
    half_width: float | None = None,
) -> Octree:
    """Build an :class:`Octree` over the given bodies.

    Parameters
    ----------
    leaf_size:
        Maximum bodies per leaf; nodes with at most this many bodies are
        not subdivided.  Subdivision also stops at Morton resolution
        (:data:`repro.tree.morton.MAX_DEPTH`), so coincident bodies cannot
        recurse forever.
    center, half_width:
        Optional explicit bounding cube; computed from the data when
        omitted.  An explicit cube must be finite, with a positive half
        width, and contain every body.

    Positions must be finite and masses finite and positive.  After this
    validation the whole build — bounds, keys, sort, nodes and moments —
    is one call into the compiled ``cext`` library whenever it loads,
    and otherwise :func:`_numpy_build`, the reference it is tested
    against: both give array-equal trees, ties in the sort broken by body
    index.
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    masses = np.ascontiguousarray(masses, dtype=np.float64)
    n = positions.shape[0]
    if n == 0:
        raise TreeError("cannot build an octree over zero bodies")
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise TreeError(f"positions must be (n, 3), got {positions.shape}")
    if masses.shape != (n,):
        raise TreeError(f"masses must be ({n},), got {masses.shape}")
    if leaf_size < 1:
        raise TreeError(f"leaf_size must be >= 1, got {leaf_size}")
    finite = np.isfinite(positions)
    if not finite.all():
        i = np.flatnonzero(~finite.all(axis=1))[0]
        raise TreeError(f"body {i} has a non-finite position {positions[i]}")
    good = np.isfinite(masses) & (masses > 0.0)
    if not good.all():
        i = np.flatnonzero(~good)[0]
        raise TreeError(f"body {i} has mass {masses[i]}; masses must be finite and positive")

    if center is not None or half_width is not None:
        if center is None or half_width is None:
            auto_center, auto_half = _bounding_cube(positions)
            center = auto_center if center is None else center
            half_width = auto_half if half_width is None else half_width
        center = np.asarray(center, dtype=np.float64)
        half_width = float(half_width)
        _check_cube(positions, center, half_width)

    cext = get_backend("cext")
    if cext.available:
        arrays = cext.octree_build(
            positions=positions, masses=masses, leaf_size=leaf_size,
            center=center, half_width=half_width,
        )
    else:
        arrays = _numpy_build(positions, masses, leaf_size, center, half_width)
    if np.any(arrays["node_masses"] <= 0.0):
        raise TreeError("node with non-positive mass (prefix-sum cancellation?)")

    if obs.enabled:
        n_nodes, max_depth = arrays["centers"].shape[0], int(arrays["depths"].max())
        obs.inc("octree_builds_total")
        obs.set_gauge("tree_depth", max_depth)
        obs.set_gauge("tree_nodes", n_nodes)
        obs.instant(
            "octree_built",
            n_bodies=n,
            n_nodes=n_nodes,
            max_depth=max_depth,
            leaf_size=leaf_size,
        )
    return Octree(**arrays, leaf_size=leaf_size)


def _bounding_cube(positions: np.ndarray) -> tuple[np.ndarray, float]:
    """Centre and half width of the cube around ``positions``, padded so
    no body sits on its upper faces."""
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    half = float(np.max(hi - lo)) * 0.5
    return 0.5 * (lo + hi), half * (1.0 + 1e-9) + 1e-12


def _numpy_build(
    positions: np.ndarray,
    masses: np.ndarray,
    leaf_size: int,
    center: np.ndarray | None,
    half_width: float | None,
) -> dict[str, np.ndarray]:
    """The reference build over validated bodies, as :class:`Octree` arrays
    by attribute name.

    Bodies are sorted by Morton key (stable, so ties keep body order);
    :func:`_numpy_octree_nodes` splits the key range into nodes, and each
    node's monopole comes from prefix sums over the sorted bodies.
    """
    if center is None or half_width is None:
        center, half_width = _bounding_cube(positions)
    keys = morton.encode(positions, center, half_width)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pos_s = positions[order]
    mass_s = masses[order]

    # prefix sums for O(1) monopole moments per node
    csum_m = np.concatenate([[0.0], np.cumsum(mass_s)])
    csum_mx = np.vstack([np.zeros(3), np.cumsum(mass_s[:, np.newaxis] * pos_s, axis=0)])

    nodes = _numpy_octree_nodes(keys, leaf_size, center, half_width)
    centers, half_widths, starts, ends, children, is_leaf, depths = nodes
    node_masses = csum_m[ends] - csum_m[starts]
    with np.errstate(divide="ignore", invalid="ignore"):  # build_octree rejects m <= 0
        coms = (csum_mx[ends] - csum_mx[starts]) / node_masses[:, np.newaxis]
    return dict(
        centers=centers,
        half_widths=half_widths,
        starts=starts,
        ends=ends,
        children=children,
        is_leaf=is_leaf,
        depths=depths,
        coms=coms,
        node_masses=node_masses,
        positions=pos_s,
        masses=mass_s,
        keys=keys,
        order=np.asarray(order, dtype=np.int64),
    )


def _check_cube(positions: np.ndarray, center: np.ndarray, half_width: float) -> None:
    """Raise :class:`TreeError` unless the closed cube is valid and holds every body."""
    if center.shape != (3,) or not np.isfinite(center).all():
        raise TreeError(f"center must be 3 finite numbers, got {center}")
    if not (np.isfinite(half_width) and half_width > 0.0):
        raise TreeError(f"half_width must be finite and positive, got {half_width}")
    outside = (positions < center - half_width) | (positions > center + half_width)
    if outside.any():
        i = np.flatnonzero(outside.any(axis=1))[0]
        raise TreeError(
            f"body {i} at {positions[i]} lies outside the bounding cube "
            f"(center {center}, half_width {half_width})"
        )


def _numpy_octree_nodes(
    keys: np.ndarray, leaf_size: int, center: np.ndarray, half_width: float
) -> tuple[np.ndarray, ...]:
    """The reference node loop over sorted Morton ``keys``.

    A LIFO stack splits each node with more than ``leaf_size`` bodies on
    its key digit at its depth; the non-empty octants become children
    with consecutive indices in octant order.  Returns ``(centers,
    half_widths, starts, ends, children, is_leaf, depths)``.
    """
    n = keys.shape[0]
    centers: list[np.ndarray] = []
    half_widths: list[float] = []
    starts: list[int] = []
    ends: list[int] = []
    children: list[np.ndarray] = []
    is_leaf: list[bool] = []
    depths: list[int] = []

    def new_node(c: np.ndarray, h: float, s: int, e: int, d: int) -> int:
        idx = len(centers)
        centers.append(c)
        half_widths.append(h)
        starts.append(s)
        ends.append(e)
        children.append(np.full(8, -1, dtype=np.int64))
        is_leaf.append(True)
        depths.append(d)
        return idx

    root = new_node(center, float(half_width), 0, n, 0)
    stack: list[int] = [root]
    digit_mask = np.uint64(0b111)

    while stack:
        node = stack.pop()
        s, e, d = starts[node], ends[node], depths[node]
        if e - s <= leaf_size or d >= morton.MAX_DEPTH:
            continue  # remains a leaf
        is_leaf[node] = False
        shift = np.uint64(3 * (morton.MAX_DEPTH - 1 - d))
        digits = ((keys[s:e] >> shift) & digit_mask).astype(np.int64)
        # sorted keys => digits are non-decreasing; child boundaries by search
        bounds = s + np.searchsorted(digits, np.arange(9))
        child_half = half_widths[node] * 0.5
        for o in range(8):
            cs, ce = int(bounds[o]), int(bounds[o + 1])
            if cs == ce:
                continue
            c_center = centers[node] + child_half * _OCTANT_OFFSETS[o]
            k = new_node(c_center, child_half, cs, ce, d + 1)
            children[node][o] = k
            stack.append(k)
        if (children[node] < 0).all():  # pragma: no cover - defensive
            raise TreeError(f"internal node {node} produced no children")

    return (
        np.asarray(centers),
        np.asarray(half_widths),
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        np.asarray(children),
        np.asarray(is_leaf),
        np.asarray(depths, dtype=np.int64),
    )
