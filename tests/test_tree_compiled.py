"""The compiled tree and walk machinery against its references.

* **Octree build** — the ``cext`` node loop gives trees whose every
  attribute is array-equal, values and dtypes, to the NumPy loop's.
* **Traversal** — the ``cext`` group traversal emits the same CSR lists,
  element for element, as the NumPy frontier loop of
  :mod:`repro.tree.walks`.
* **Evaluator** — the compiled float32 evaluator of the tree plans (one
  engine task per worker, every segment through ``sources``) gives rows
  bit-identical to evaluating every walk segment with
  ``tile_loop_forces(backend="cext")``, on a serial and a threaded engine.
* **Fallback** — without the C library, trees and walks come from the
  NumPy loops and the plans from the per-walk path, with equal results.
* **G** — each accumulated contribution is scaled once, so a pass at
  ``G=2`` is exactly twice the pass at ``G=1`` on every tree plan.

Only the build, the traversal, the evaluator and the ``cext`` G case
need a C compiler; the fallback and the numpy G case run everywhere.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import PlanConfig, get_plan
from repro.core.plans.tree_base import evaluate_walks, segments
from repro.exec.engine import ExecutionEngine
from repro.gpu.kernel import tile_loop_forces
from repro.nbody.ic import plummer
from repro.nbody.kernels import (
    CExtensionBackend,
    KernelBackend,
    get_backend,
    register_backend,
)
from repro.tree.bh_force import walk_sources
from repro.tree.mac import GroupMAC
from repro.tree.morton import MAX_DEPTH
from repro.tree.octree import build_octree
from repro.tree.walks import (
    _numpy_walk_lists,
    cell_groups,
    generate_walks,
    make_groups,
    uniform_groups,
)

EPS = 1e-3

_cext = get_backend("cext")

needs_cext = pytest.mark.skipif(
    not _cext.available,
    reason=f"cext backend unavailable: {_cext.unavailable_reason}",
)

GROUPINGS = {
    "cell": cell_groups,
    "packed": make_groups,
    "uniform": lambda tree, size: uniform_groups(tree.n_bodies, size),
}


def _bodies(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if kind == "plummer":
        p = plummer(n, seed=seed)
        return p.positions, p.masses
    if kind == "clustered":
        centres = rng.uniform(-5.0, 5.0, (4, 3))
        pos = centres[rng.integers(0, 4, n)] + 1e-3 * rng.standard_normal((n, 3))
    else:  # coincident: a quarter of the bodies share one point
        pos = rng.uniform(-1.0, 1.0, (n, 3))
        pos[: max(1, n // 4)] = pos[0]
    return pos, rng.uniform(0.5, 1.5, n)


class _UnavailableCext(KernelBackend):
    name = "cext"
    kind = "compiled"

    @property
    def available(self):
        return False

    @property
    def unavailable_reason(self):
        return "test stub is never available"

    def sources(self, *a, **kw):  # pragma: no cover - never runs
        raise NotImplementedError

    def self_forces(self, *a, **kw):  # pragma: no cover - never runs
        raise NotImplementedError


@contextmanager
def _without_cext():
    """Run the body with ``cext`` registered as unavailable."""
    register_backend(_UnavailableCext(), replace=True)
    try:
        yield
    finally:
        register_backend(_cext, replace=True)


def _assert_trees_equal(got, want):
    """Every attribute of two octrees equal, arrays in values and dtypes."""
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert getattr(got, name).dtype == value.dtype, name
            assert np.array_equal(getattr(got, name), value), name
        else:
            assert getattr(got, name) == value, name


@needs_cext
class TestOctreeBuild:
    @given(
        kind=st.sampled_from(["plummer", "clustered", "coincident"]),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**31 - 1),
        leaf_size=st.sampled_from([1, 8, 32]),
        cube=st.one_of(
            st.none(),
            st.tuples(st.floats(-2.0, 2.0), st.floats(1.0, 4.0)),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_array_equal_to_numpy_loop(self, kind, n, seed, leaf_size, cube):
        pos, mass = _bodies(kind, n, seed)
        kw = {}
        if cube is not None:  # an explicit cube, shifted off the bodies' centre
            shift, scale = cube
            center = pos.mean(axis=0) + shift
            kw = dict(center=center, half_width=scale * float(np.abs(pos - center).max()) + 1e-6)
        tree = build_octree(pos, mass, leaf_size=leaf_size, **kw)
        with _without_cext():
            reference = build_octree(pos, mass, leaf_size=leaf_size, **kw)
        _assert_trees_equal(tree, reference)

    def test_oversized_leaves_at_max_depth(self):
        pos, mass = _bodies("coincident", 400, seed=3)
        tree = build_octree(pos, mass, leaf_size=1)
        leaves = tree.leaf_nodes()
        deep = leaves[tree.depths[leaves] == MAX_DEPTH]
        assert (tree.node_counts()[deep] > 1).any(), "no oversized leaf built"
        with _without_cext():
            _assert_trees_equal(tree, build_octree(pos, mass, leaf_size=1))

    def test_capacity_retry(self):
        """A node count past the first buffer guess comes back whole."""
        rng = np.random.default_rng(6)
        pairs = rng.uniform(-1.0, 1.0, (500, 3))
        pos = np.vstack([pairs, pairs + 1e-12])  # each pair splits to MAX_DEPTH
        tree = build_octree(pos, np.ones(1000), leaf_size=1)
        assert tree.n_nodes > 8 * 1000 + 64  # overflowed the guess
        with _without_cext():
            _assert_trees_equal(tree, build_octree(pos, np.ones(1000), leaf_size=1))

    def test_malformed_input_rejected(self):
        p = plummer(64, seed=1)
        tree = build_octree(p.positions, p.masses, leaf_size=4)
        arrays = dict(
            keys=tree.keys, leaf_size=4, center=tree.centers[0],
            half_width=tree.half_widths[0],
        )
        for case in (
            dict(keys=tree.keys[:0]),
            dict(leaf_size=0),
            dict(keys=tree.keys[::-1]),
        ):
            with pytest.raises(ValueError, match="malformed"):
                _cext.octree_nodes(**{**arrays, **case})
        for case in (dict(keys=tree.keys[:, None]), dict(center=np.zeros(2))):
            with pytest.raises(ValueError, match="must be"):
                _cext.octree_nodes(**{**arrays, **case})


def _lists(tree, groups, theta):
    compiled = _cext.walk_lists(
        positions=tree.positions, starts=tree.starts, ends=tree.ends,
        children=tree.children, is_leaf=tree.is_leaf, sizes=tree.node_sizes(),
        coms=tree.coms, groups=groups, theta=theta,
    )
    return compiled, _numpy_walk_lists(tree, groups, GroupMAC(theta))


@needs_cext
class TestTraversal:
    @given(
        kind=st.sampled_from(["plummer", "clustered", "coincident"]),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**31 - 1),
        theta=st.floats(0.2, 1.2),
        leaf_size=st.sampled_from([1, 8, 32]),
        grouping=st.sampled_from(sorted(GROUPINGS)),
        group_size=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lists_array_equal_to_numpy_loop(
        self, kind, n, seed, theta, leaf_size, grouping, group_size
    ):
        pos, mass = _bodies(kind, n, seed)
        tree = build_octree(pos, mass, leaf_size=leaf_size)
        groups = GROUPINGS[grouping](tree, group_size)
        compiled, reference = _lists(tree, groups, theta)
        for got, want in zip(compiled, reference):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_oversized_leaves_at_max_depth(self):
        pos, mass = _bodies("coincident", 400, seed=3)
        tree = build_octree(pos, mass, leaf_size=1)
        leaves = tree.leaf_nodes()
        deep = leaves[tree.depths[leaves] == MAX_DEPTH]
        assert (tree.node_counts()[deep] > 1).any(), "no oversized leaf built"
        for theta in (0.3, 1.0):
            compiled, reference = _lists(tree, cell_groups(tree, 16), theta)
            for got, want in zip(compiled, reference):
                assert np.array_equal(got, want)

    def test_generate_walks_uses_compiled_lists(self):
        p = plummer(2048, seed=5)
        tree = build_octree(p.positions, p.masses, leaf_size=16)
        groups = cell_groups(tree, 64)
        walks = generate_walks(tree, theta=0.6, groups=groups)
        compiled, _ = _lists(tree, groups, 0.6)
        csr = (walks.cell_offsets, walks.cells, walks.part_offsets, walks.parts)
        for got, want in zip(csr, compiled):
            assert np.array_equal(got, want)
        c0, c1 = walks.cell_offsets[3:5]
        assert np.array_equal(walks[3].cell_list, walks.cells[c0:c1])
        assert walks.total_interactions == sum(x.interactions for x in walks)

    def test_capacity_retry(self):
        """Lists longer than the first buffer guess come back whole."""
        p = plummer(512, seed=2)
        tree = build_octree(p.positions, p.masses, leaf_size=1)
        groups = uniform_groups(tree.n_bodies, 1)
        compiled, reference = _lists(tree, groups, 0.05)
        assert compiled[3].size > 32 * tree.n_bodies  # overflowed the guess
        for got, want in zip(compiled, reference):
            assert np.array_equal(got, want)

    def test_malformed_tree_rejected(self):
        p = plummer(64, seed=1)
        tree = build_octree(p.positions, p.masses, leaf_size=4)
        arrays = dict(
            positions=tree.positions, starts=tree.starts, ends=tree.ends,
            children=tree.children, is_leaf=tree.is_leaf,
            sizes=tree.node_sizes(), coms=tree.coms, theta=0.6,
        )
        children = tree.children.copy()
        children[0, np.flatnonzero(children[0] >= 0)[0]] = tree.n_nodes + 5
        no_nodes = {
            name: arrays[name][:0]
            for name in ("starts", "ends", "children", "is_leaf", "sizes", "coms")
        }
        bad_groups = [[[0, 65]], [[-1, 4]], [[8, 8]], [[9, 3]]]
        cases = [
            dict(arrays, children=children, groups=uniform_groups(64, 8)),
            dict(arrays, **no_nodes, groups=uniform_groups(64, 8)),
            *(dict(arrays, groups=np.array(g)) for g in bad_groups),
        ]
        for case in cases:
            with pytest.raises(ValueError, match="malformed"):
                _cext.walk_lists(**case)


def _per_walk_reference(walks, splits, cfg, selected):
    """Every segment through tile_loop_forces(backend="cext")."""
    tree = walks.tree
    acc = np.zeros((tree.n_bodies, 3), dtype=np.float32)
    for i in selected:
        w = walks[i]
        src_pos, src_mass = walk_sources(tree, w)
        out = np.zeros((w.n_bodies, 3), dtype=np.float32)
        for a, b in segments(w.list_length, int(splits[i])):
            tile_loop_forces(
                tree.positions[w.start : w.end], src_pos[a:b], src_mass[a:b],
                wg_size=cfg.wg_size, softening=cfg.softening, G=cfg.G,
                out=out, accumulate=True, backend="cext",
            )
        acc[w.start : w.end] = out
    return acc


@needs_cext
class TestEvaluator:
    @pytest.fixture(scope="class")
    def walks(self):
        p = plummer(1024, seed=1000)
        tree = build_octree(p.positions, p.masses, leaf_size=32)
        return generate_walks(tree, theta=0.6, groups=cell_groups(tree, 256))

    @pytest.mark.parametrize("plan", ["w", "jw"])
    def test_bit_identical_to_per_walk_cext(self, walks, plan):
        cfg = PlanConfig(softening=EPS, kernel_backend="cext")
        splits = get_plan(plan, cfg).split_counts(walks)
        if plan == "jw":
            assert splits.max() > 1, "jw should split some lists"
        engine = ExecutionEngine()
        tasks = engine.tasks_total
        acc, interactions = evaluate_walks(
            walks, splits, config=cfg, engine=engine, backend="cext"
        )
        assert engine.tasks_total - tasks == 1  # one engine task per pass
        everything = np.arange(len(walks))
        assert np.array_equal(acc, _per_walk_reference(walks, splits, cfg, everything))
        assert interactions == walks.total_interactions

    def test_masked_selection(self, walks):
        cfg = PlanConfig(softening=EPS, kernel_backend="cext")
        splits = get_plan("jw", cfg).split_counts(walks)
        selected = np.arange(1, len(walks), 3)
        acc, interactions = evaluate_walks(
            walks, splits, config=cfg, engine=ExecutionEngine(),
            backend="cext", selected=selected,
        )
        assert np.array_equal(acc, _per_walk_reference(walks, splits, cfg, selected))
        assert interactions == int(walks.interactions_per_walk()[selected].sum())

    def test_serial_equals_two_threads(self, walks):
        cfg = PlanConfig(softening=EPS, kernel_backend="cext")
        splits = get_plan("jw", cfg).split_counts(walks)
        serial, _ = evaluate_walks(
            walks, splits, config=cfg, engine=ExecutionEngine(), backend="cext"
        )
        with ExecutionEngine(2) as engine:
            tasks = engine.tasks_total
            threaded, _ = evaluate_walks(
                walks, splits, config=cfg, engine=engine, backend="cext"
            )
            assert engine.tasks_total - tasks == 2
        assert np.array_equal(serial, threaded)

    def test_every_segment_goes_through_sources(self, walks, monkeypatch):
        cfg = PlanConfig(softening=EPS, kernel_backend="cext")
        splits = get_plan("jw", cfg).split_counts(walks)
        calls = []
        sources = CExtensionBackend.sources

        def counting(self, targets, src_pos, src_mass, **kw):
            calls.append(targets.shape[0] * src_pos.shape[0])
            return sources(self, targets, src_pos, src_mass, **kw)

        monkeypatch.setattr(CExtensionBackend, "sources", counting)
        _, interactions = evaluate_walks(
            walks, splits, config=cfg, engine=ExecutionEngine(), backend="cext"
        )
        assert len(calls) == int(splits.sum())
        assert sum(calls) == interactions == walks.total_interactions

    def test_bad_walk_arrays_rejected(self, walks):
        tree = walks.tree
        arrays = dict(
            positions=tree.positions, masses=tree.masses, coms=tree.coms,
            node_masses=tree.node_masses, groups=walks.groups,
            cell_offsets=walks.cell_offsets, cells=walks.cells,
            part_offsets=walks.part_offsets, parts=walks.parts,
            ids=np.arange(len(walks)), splits=np.ones(len(walks), np.int64),
            eps2=EPS * EPS,
        )
        cells = walks.cells.copy()
        cells[0] = tree.n_nodes
        groups = walks.groups.copy()
        groups[-1, 1] = tree.n_bodies + 1
        offsets = walks.part_offsets.copy()
        offsets[-1] += 1
        for case, match in (
            (dict(cells=cells), "outside the tree"),
            (dict(groups=groups), "outside the body"),
            (dict(part_offsets=offsets), "outside the body or list"),
            (dict(splits=np.zeros(len(walks), np.int64)), "inconsistent"),
        ):
            with pytest.raises(ValueError, match=match):
                _cext.walk_forces(**{**arrays, **case})


class TestFallback:
    def test_numpy_loop_and_per_walk_path_without_cext(self):
        p = plummer(1024, seed=4)
        cfg = PlanConfig(softening=EPS, kernel_backend="cext", n_rungs=3)
        active = np.arange(0, 1024, 5)

        def run(config):
            tree = build_octree(p.positions, p.masses, leaf_size=32)
            walks = generate_walks(tree, theta=0.6, groups=cell_groups(tree, 256))
            engine = ExecutionEngine()
            accs = [
                get_plan(name, config, engine=engine).compute_step(
                    p.positions, p.masses, *extra
                )[0]
                for name, extra in (("w", ()), ("jw", ()), ("block-jw", (active,)))
            ]
            return tree, walks, accs, engine.tasks_total

        tree, walks, accs, _ = run(
            PlanConfig(softening=EPS, kernel_backend="numpy", n_rungs=3)
        )
        with _without_cext(), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fb_tree, fb_walks, fb_accs, tasks = run(cfg)
        _assert_trees_equal(fb_tree, tree)
        for name in ("cell_offsets", "cells", "part_offsets", "parts"):
            assert np.array_equal(getattr(fb_walks, name), getattr(walks, name))
        assert tasks > 3  # per-walk tasks, not one task per pass
        for got, want in zip(fb_accs, accs):
            assert np.array_equal(got, want)


class TestGScaling:
    @pytest.mark.parametrize(
        "backend", ["numpy", pytest.param("cext", marks=needs_cext)]
    )
    def test_G2_is_exactly_twice_G1(self, backend):
        p = plummer(1024, seed=8)
        active = np.arange(0, 1024, 3)
        results = {}
        for G in (1.0, 2.0):
            cfg = PlanConfig(softening=EPS, kernel_backend=backend, G=G, n_rungs=3)
            results[G] = [
                get_plan(name, cfg).compute_step(p.positions, p.masses, *extra)[0]
                for name, extra in (("w", ()), ("jw", ()), ("block-jw", (active,)))
            ]
        for one, two in zip(results[1.0], results[2.0]):
            assert np.array_equal(two, 2.0 * one)
