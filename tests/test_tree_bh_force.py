"""Unit tests for walk-list force evaluation and error metrics."""

import numpy as np
import pytest

from repro.nbody.forces import direct_forces
from repro.tree.bh_force import (
    accelerations_from_walks,
    max_relative_error,
    rms_relative_error,
    walk_sources,
)
from repro.tree.octree import build_octree
from repro.tree.traversal import bh_accelerations
from repro.tree.walks import WalkSet, generate_walks

EPS = 1e-2


@pytest.fixture(scope="module")
def tree(plummer_medium):
    return build_octree(plummer_medium.positions, plummer_medium.masses, leaf_size=16)


@pytest.fixture(scope="module")
def walks(tree):
    return generate_walks(tree, theta=0.6, group_size=128)


@pytest.fixture(scope="module")
def direct_ref(plummer_medium):
    return direct_forces(
        plummer_medium.positions, plummer_medium.masses, softening=EPS,
        include_self=False,
    )


class TestWalkSources:
    def test_source_count(self, tree, walks):
        w = walks[0]
        pos, mass = walk_sources(tree, w)
        assert pos.shape == (w.list_length, 3)
        assert mass.shape == (w.list_length,)

    def test_total_source_mass(self, tree, walks):
        """Cells + particles of a walk account for the whole system mass."""
        w = walks[0]
        _, mass = walk_sources(tree, w)
        assert mass.sum() == pytest.approx(tree.masses.sum(), rel=1e-12)


class TestWalkForces:
    def test_accuracy_vs_direct(self, walks, direct_ref):
        acc = accelerations_from_walks(walks, softening=EPS)
        assert rms_relative_error(acc, direct_ref) < 0.01

    def test_walks_at_least_as_accurate_as_point_bh(self, tree, walks, direct_ref):
        """The group MAC is conservative, so walk forces should not be much
        worse than per-body BH at the same theta."""
        acc_w = accelerations_from_walks(walks, softening=EPS)
        acc_p = bh_accelerations(tree, theta=0.6, softening=EPS)
        err_w = rms_relative_error(acc_w, direct_ref)
        err_p = rms_relative_error(acc_p, direct_ref)
        assert err_w <= err_p * 1.5

    def test_float32_close_to_float64(self, walks):
        a32 = accelerations_from_walks(walks, softening=EPS, dtype=np.float32)
        a64 = accelerations_from_walks(walks, softening=EPS, dtype=np.float64)
        assert rms_relative_error(a32, a64) < 1e-4

    def test_incomplete_walks_rejected(self, tree, walks):
        k = len(walks) - 1  # drop the last walk
        partial = WalkSet(
            tree,
            groups=walks.groups[:k],
            cell_offsets=walks.cell_offsets[: k + 1],
            cells=walks.cells[: walks.cell_offsets[k]],
            part_offsets=walks.part_offsets[: k + 1],
            parts=walks.parts[: walks.part_offsets[k]],
            theta=walks.theta,
        )
        with pytest.raises(ValueError, match="cover"):
            accelerations_from_walks(partial, softening=EPS)


class TestErrorMetrics:
    def test_zero_error_for_identical(self, rng):
        a = rng.standard_normal((10, 3))
        assert rms_relative_error(a, a) == 0.0
        assert max_relative_error(a, a) == 0.0

    def test_known_error(self):
        ref = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        acc = np.array([[1.1, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert max_relative_error(acc, ref) == pytest.approx(0.1)
        assert rms_relative_error(acc, ref) == pytest.approx(0.1 / np.sqrt(2))

    def test_max_at_least_rms(self, rng):
        ref = rng.standard_normal((50, 3)) + 2.0
        acc = ref + 0.01 * rng.standard_normal((50, 3))
        assert max_relative_error(acc, ref) >= rms_relative_error(acc, ref)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            rms_relative_error(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            max_relative_error(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_zero_reference_rejected(self):
        ref = np.zeros((2, 3))
        with pytest.raises(ValueError, match="zero"):
            rms_relative_error(np.ones((2, 3)), ref)
