"""Unit tests for the multipole acceptance criteria."""

import numpy as np
import pytest

from repro.tree.mac import GroupMAC, PointMAC, aabb_distance


class TestAabbDistance:
    def test_point_inside_is_zero(self):
        lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
        assert aabb_distance(lo, hi, np.array([0.2, -0.3, 0.9])) == 0.0

    def test_point_on_face(self):
        lo, hi = np.zeros(3), np.ones(3)
        assert aabb_distance(lo, hi, np.array([2.0, 0.5, 0.5])) == pytest.approx(1.0)

    def test_point_at_corner(self):
        lo, hi = np.zeros(3), np.ones(3)
        d = aabb_distance(lo, hi, np.array([2.0, 2.0, 2.0]))
        assert d == pytest.approx(np.sqrt(3.0))

    def test_vectorised(self):
        lo, hi = np.zeros(3), np.ones(3)
        pts = np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5]])
        d = aabb_distance(lo, hi, pts)
        np.testing.assert_allclose(d, [0.0, 1.0])

    def test_pinned_summation_order(self, rng):
        """Bit for bit sqrt((dx*dx + dy*dy) + dz*dz), the order the compiled
        walk traversal repeats."""
        lo, hi = np.array([-0.3, 0.1, -1.0]), np.array([0.2, 0.7, -0.4])
        pts = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
        d = np.maximum(np.maximum(lo - pts, 0.0), pts - hi)
        dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
        want = np.sqrt((dx * dx + dy * dy) + dz * dz)
        assert np.array_equal(aabb_distance(lo, hi, pts), want)
        assert all(aabb_distance(lo, hi, p) == w for p, w in zip(pts[:50], want))


class TestPointMAC:
    def test_accepts_distant_cell(self):
        mac = PointMAC(theta=0.6)
        assert mac.accept(np.array([1.0]), np.array([10.0]))[0]

    def test_rejects_close_cell(self):
        mac = PointMAC(theta=0.6)
        assert not mac.accept(np.array([1.0]), np.array([1.0]))[0]

    def test_threshold_is_strict(self):
        mac = PointMAC(theta=0.5)
        # l / D == theta exactly -> reject (criterion is l/D < theta)
        assert not mac.accept(np.array([1.0]), np.array([2.0]))[0]

    def test_zero_distance_never_accepts(self):
        mac = PointMAC(theta=100.0)
        assert not mac.accept(np.array([1.0]), np.array([0.0]))[0]

    def test_smaller_theta_is_stricter(self):
        sizes = np.array([1.0])
        d = np.array([1.8])
        assert PointMAC(theta=0.8).accept(sizes, d)[0]
        assert not PointMAC(theta=0.3).accept(sizes, d)[0]

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="theta"):
            PointMAC(theta=0.0)


class TestGroupMAC:
    def test_conservative_vs_point(self, rng):
        """Group acceptance implies point acceptance for every member."""
        mac_g = GroupMAC(theta=0.6)
        mac_p = PointMAC(theta=0.6)
        lo = np.array([-0.5, -0.5, -0.5])
        hi = np.array([0.5, 0.5, 0.5])
        members = rng.uniform(-0.5, 0.5, (50, 3))
        coms = rng.uniform(-5, 5, (40, 3))
        sizes = rng.uniform(0.1, 2.0, 40)
        group_ok = mac_g.accept(sizes, lo, hi, coms)
        for k in np.flatnonzero(group_ok):
            dists = np.linalg.norm(members - coms[k], axis=1)
            assert mac_p.accept(np.full(50, sizes[k]), dists).all()

    def test_cell_inside_box_never_accepted(self):
        mac = GroupMAC(theta=10.0)
        lo, hi = np.zeros(3), np.ones(3)
        ok = mac.accept(np.array([0.1]), lo, hi, np.array([[0.5, 0.5, 0.5]]))
        assert not ok[0]

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="theta"):
            GroupMAC(theta=-0.1)
