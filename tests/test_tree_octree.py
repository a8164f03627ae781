"""Unit tests for the octree build."""

import numpy as np
import pytest

from repro.errors import TreeError
from repro.tree.octree import build_octree


def _tree(particles, **kw):
    return build_octree(particles.positions, particles.masses, **kw)


class TestBuild:
    def test_invariants_plummer(self, plummer_small):
        tree = _tree(plummer_small, leaf_size=8)
        tree.validate()

    def test_invariants_uniform(self, uniform_small):
        tree = _tree(uniform_small, leaf_size=16)
        tree.validate()

    def test_root_covers_everything(self, plummer_small):
        tree = _tree(plummer_small)
        assert tree.starts[tree.root] == 0
        assert tree.ends[tree.root] == plummer_small.n

    def test_leaf_size_respected(self, plummer_small):
        tree = _tree(plummer_small, leaf_size=8)
        counts = tree.node_counts()
        assert np.all(counts[tree.is_leaf] <= 8)

    def test_leaf_nodes_tile_bodies(self, plummer_small):
        tree = _tree(plummer_small, leaf_size=8)
        leaves = tree.leaf_nodes()
        spans = sorted((int(tree.starts[i]), int(tree.ends[i])) for i in leaves)
        cursor = 0
        for s, e in spans:
            assert s == cursor
            cursor = e
        assert cursor == tree.n_bodies

    def test_root_monopole(self, plummer_small):
        tree = _tree(plummer_small)
        assert tree.node_masses[0] == pytest.approx(plummer_small.total_mass)
        np.testing.assert_allclose(
            tree.coms[0], plummer_small.center_of_mass(), atol=1e-12
        )

    def test_child_masses_sum_to_parent(self, plummer_small):
        tree = _tree(plummer_small, leaf_size=4)
        for i in range(tree.n_nodes):
            kids = tree.children[i][tree.children[i] >= 0]
            if kids.size:
                assert tree.node_masses[kids].sum() == pytest.approx(
                    tree.node_masses[i], rel=1e-12
                )

    def test_unsort_roundtrip(self, plummer_small):
        tree = _tree(plummer_small)
        recovered = tree.unsort(tree.positions)
        np.testing.assert_allclose(recovered, plummer_small.positions)

    def test_single_body(self):
        tree = build_octree(np.array([[1.0, 2.0, 3.0]]), np.array([2.0]))
        assert tree.n_nodes == 1
        assert tree.is_leaf[0]
        np.testing.assert_allclose(tree.coms[0], [1.0, 2.0, 3.0])

    def test_leaf_size_one(self, rng):
        pos = rng.uniform(-1, 1, (64, 3))
        tree = build_octree(pos, np.ones(64), leaf_size=1)
        tree.validate()
        counts = tree.node_counts()
        assert np.all(counts[tree.is_leaf] == 1)

    def test_coincident_bodies_terminate(self):
        # all bodies identical: subdivision cannot separate them; the build
        # must stop at Morton resolution instead of recursing forever
        pos = np.tile(np.array([[0.25, 0.25, 0.25]]), (10, 1))
        pos = np.vstack([pos, [[0.9, 0.9, 0.9]]])
        tree = build_octree(pos, np.ones(11), leaf_size=2)
        tree.validate()
        counts = tree.node_counts()
        assert counts[tree.is_leaf].max() >= 10  # the coincident clump stayed a leaf

    def test_explicit_bounding_cube(self, plummer_small):
        tree = _tree(plummer_small, center=np.zeros(3), half_width=50.0)
        tree.validate()
        assert tree.half_widths[0] == 50.0

    def test_bodies_on_explicit_cube_faces_accepted(self):
        pos = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])
        tree = build_octree(pos, np.ones(3), leaf_size=1, center=np.zeros(3), half_width=1.0)
        tree.validate()

    @pytest.mark.parametrize(
        "cube, match",
        [
            (dict(center=np.zeros(3), half_width=0.0), "half_width"),
            (dict(center=np.zeros(3), half_width=-1.0), "half_width"),
            (dict(center=np.zeros(3), half_width=np.nan), "half_width"),
            (dict(center=np.zeros(3), half_width=np.inf), "half_width"),
            (dict(center=np.array([0.0, np.nan, 0.0]), half_width=50.0), "center"),
            (dict(center=np.array([np.inf, 0.0, 0.0]), half_width=50.0), "center"),
            (dict(center=np.zeros(2), half_width=50.0), "center"),
        ],
    )
    def test_bad_explicit_cube_rejected(self, plummer_small, cube, match):
        with pytest.raises(TreeError, match=match):
            _tree(plummer_small, **cube)

    @pytest.mark.parametrize("x", [1e30, 1.0 + 1e-9, -1.0 - 1e-9])
    def test_body_outside_explicit_cube_rejected(self, rng, x):
        pos = rng.uniform(-0.5, 0.5, (10, 3))
        pos[6, 0] = x
        with pytest.raises(TreeError, match="body 6 .* outside the bounding cube"):
            build_octree(pos, np.ones(10), center=np.zeros(3), half_width=1.0)

    def test_node_sizes_are_double_half_widths(self, plummer_small):
        tree = _tree(plummer_small)
        np.testing.assert_allclose(tree.node_sizes(), 2.0 * tree.half_widths)


class TestBuildErrors:
    def test_zero_bodies(self):
        with pytest.raises(TreeError, match="zero bodies"):
            build_octree(np.zeros((0, 3)), np.zeros(0))

    def test_bad_position_shape(self):
        with pytest.raises(TreeError, match="positions"):
            build_octree(np.zeros((3, 2)), np.ones(3))

    def test_bad_mass_shape(self):
        with pytest.raises(TreeError, match="masses"):
            build_octree(np.zeros((3, 3)), np.ones(4))

    def test_bad_leaf_size(self):
        with pytest.raises(TreeError, match="leaf_size"):
            build_octree(np.zeros((2, 3)), np.ones(2), leaf_size=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, rng, value):
        pos = rng.uniform(-1, 1, (10, 3))
        pos[3, 1] = value
        pos[7, 2] = value
        with pytest.raises(TreeError, match="body 3 has a non-finite position"):
            build_octree(pos, np.ones(10))

    @pytest.mark.parametrize("leaf_size", [1, 32])
    @pytest.mark.parametrize("mass", [0.0, -0.5, np.nan, np.inf])
    def test_bad_mass_rejected(self, rng, leaf_size, mass):
        # at leaf_size=32 every node's mass sum stays positive for a zero
        # or small negative mass, so only a per-body check can catch it
        masses = np.ones(10)
        masses[5] = mass
        with pytest.raises(TreeError, match="body 5 has mass"):
            build_octree(rng.uniform(-1, 1, (10, 3)), masses, leaf_size=leaf_size)

    def test_prefix_sum_cancellation_still_caught(self):
        # the light body's node mass is (1e20 + 1) - 1e20 == 0 in float64
        pos = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(TreeError, match="non-positive mass"):
            build_octree(pos, np.array([1e20, 1.0]), leaf_size=1)


class TestScaling:
    def test_node_count_scales_linearly(self):
        from repro.nbody.ic import plummer

        n1 = build_octree(
            plummer(1000, seed=1).positions, np.full(1000, 1e-3), leaf_size=16
        ).n_nodes
        n2 = build_octree(
            plummer(4000, seed=1).positions, np.full(4000, 2.5e-4), leaf_size=16
        ).n_nodes
        assert 2.0 < n2 / n1 < 8.0  # roughly linear in N

    def test_depth_reasonable_for_plummer(self, plummer_medium):
        tree = _tree(plummer_medium, leaf_size=16)
        assert tree.max_depth() <= 14
