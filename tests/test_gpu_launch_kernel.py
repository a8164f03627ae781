"""Unit tests for launch records, work records and the device tile loop
(:func:`accelerations_from_sources` in float32 with ``block`` = the
work-group size, as the plans run it)."""

import dataclasses

import numpy as np
import pytest

from repro.core.plans import PlanConfig, get_plan
from repro.errors import DeviceError, LaunchError
from repro.gpu.device import RADEON_HD_5850
from repro.gpu.kernel import (
    packed_tile_loop_work,
    reduction_work,
    tile_loop_work,
)
from repro.gpu.launch import KernelLaunch, NDRange, WorkGroups
from repro.nbody.forces import accelerations_from_sources

DEV = RADEON_HD_5850
EPS = 1e-2


class TestNDRange:
    def test_workgroup_count(self):
        assert NDRange(1024, 256).n_workgroups == 4

    def test_rejects_misaligned(self):
        with pytest.raises(LaunchError):
            NDRange(1000, 256)

    def test_rejects_nonpositive(self):
        with pytest.raises(LaunchError):
            NDRange(0, 256)
        with pytest.raises(LaunchError):
            NDRange(256, 0)

    def test_validate_on_device(self):
        NDRange(512, 256).validate_on(DEV)
        with pytest.raises(Exception):
            NDRange(1024, 512).validate_on(DEV)


def _work(interactions, issued, active, **kw):
    return WorkGroups(
        interactions=interactions, issued_interactions=issued, active_threads=active, **kw
    )


class TestWorkGroupWork:
    """The work-group columns a launch carries."""

    def test_padding_fraction(self):
        wg = _work([80, 50], [100, 50], [10, 10])
        np.testing.assert_allclose(wg.padding_fraction(), [0.2, 0.0])

    def test_zero_issued_padding(self):
        assert _work([0], [0], [1]).padding_fraction().tolist() == [0.0]

    def test_rejects_issued_below_useful(self):
        with pytest.raises(LaunchError, match="work-group 1"):
            _work([1, 10], [1, 5], [1, 1])
        with pytest.raises(LaunchError):
            _work([-1], [0], [1])

    def test_rejects_no_threads(self):
        with pytest.raises(LaunchError):
            _work([0, 0], [0, 0], [1, 0])

    def test_scalars_broadcast_to_int64_columns(self):
        wg = _work([1, 2, 3], 6, [7, 7, 7], lds_bytes_peak=64)
        assert len(wg) == 3
        for name in ("issued_interactions", "active_threads", "lds_bytes_peak", "barriers"):
            column = getattr(wg, name)
            assert column.dtype == np.int64 and column.shape == (3,)
        assert wg.lds_bytes_peak.tolist() == [64, 64, 64]
        with pytest.raises(LaunchError, match="one entry per work-group"):
            _work([1], [1], 7)
        with pytest.raises(LaunchError, match="for 3 work-groups"):
            _work([1, 2], [4, 5, 6], [7, 7, 7])


class TestKernelLaunch:
    def _wg(self, *n):
        return _work(list(n), list(n), [1] * len(n))

    def test_totals(self):
        kl = KernelLaunch("k", 256, self._wg(10, 20))
        assert kl.total_interactions == 30
        assert type(kl.total_interactions) is int
        assert kl.n_workgroups == 2

    def test_rejects_empty(self):
        with pytest.raises(LaunchError, match="no work-groups"):
            KernelLaunch("k", 256, self._wg())

    def test_rejects_overfull_workgroup(self):
        wg = _work([1, 1], [1, 1], [1, 300])
        with pytest.raises(LaunchError, match="'wg1' has 300 active"):
            KernelLaunch("k", 256, wg)
        with pytest.raises(LaunchError, match="'b' has 300 active"):
            KernelLaunch("k", 256, wg, labels=lambda: ["a", "b"])

    def test_labels_are_made_on_demand(self):
        made = []

        def labels():
            made.append(True)
            return ["a", "b"]

        kl = KernelLaunch("k", 256, self._wg(1, 2), labels=labels)
        assert not made
        assert kl.labels() == ["a", "b"] and made
        assert KernelLaunch("k", 256, self._wg(1, 2)).labels() == ["wg0", "wg1"]

    def test_validate_on_checks_lds(self):
        wg = _work([1], [1], [1], lds_bytes_peak=DEV.lds_bytes_per_cu + 1)
        kl = KernelLaunch("k", 256, wg)
        with pytest.raises(LaunchError, match="LDS"):
            kl.validate_on(DEV)


def _tile_loop(targets, src_pos, src_mass, *, wg_size, **kw):
    """The device tile loop: float32, ``wg_size`` sources per tile."""
    return accelerations_from_sources(
        targets, src_pos, src_mass, block=wg_size, dtype=np.float32, **kw
    )


class TestTileLoopForces:
    def test_matches_reference(self, plummer_small, rng):
        pos, m = plummer_small.positions, plummer_small.masses
        targets = pos[:40]
        acc = _tile_loop(targets, pos, m, wg_size=64, softening=EPS)
        ref = accelerations_from_sources(targets, pos, m, softening=EPS)
        err = np.linalg.norm(acc - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() < 1e-4  # float32 tiles vs float64

    def test_tile_size_does_not_change_result_much(self, plummer_small):
        pos, m = plummer_small.positions, plummer_small.masses
        a1 = _tile_loop(pos[:16], pos, m, wg_size=16, softening=EPS)
        a2 = _tile_loop(pos[:16], pos, m, wg_size=256, softening=EPS)
        np.testing.assert_allclose(a1, a2, rtol=1e-4, atol=1e-6)

    def test_lds_capacity_enforced(self, plummer_small):
        # a 64-body tile needs 1,024 B of LDS; each pass checks it once
        tiny = dataclasses.replace(DEV, lds_bytes_per_cu=256)
        pos, m = plummer_small.positions, plummer_small.masses
        config = PlanConfig(softening=EPS, wg_size=64, device=tiny)
        for plan in ("i", "j", "w", "jw"):
            with pytest.raises(DeviceError, match="LDS"):
                get_plan(plan, config).accelerations(pos, m)

    def test_g_scaling(self, plummer_small):
        pos, m = plummer_small.positions, plummer_small.masses
        a1 = _tile_loop(pos[:8], pos, m, wg_size=64, softening=EPS)
        a2 = _tile_loop(pos[:8], pos, m, wg_size=64, softening=EPS, G=2.0)
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-5)

    def test_rejects_bad_wg_size(self, plummer_small):
        pos, m = plummer_small.positions, plummer_small.masses
        with pytest.raises(ValueError, match="block must be positive"):
            _tile_loop(pos[:4], pos, m, wg_size=0, softening=EPS)


def _tile(active, n_sources, wg_size=256):
    return tile_loop_work(
        active_threads=[active], n_sources=[n_sources], wg_size=wg_size, wavefront_size=64
    )


def _packed(n_targets, n_sources, wg_size=256):
    return packed_tile_loop_work(
        n_targets=[n_targets], n_sources=[n_sources], wg_size=wg_size, wavefront_size=64
    )


class TestWorkRecords:
    def test_tile_loop_work_counts(self):
        wg = _tile(100, 1000)
        assert wg.interactions.tolist() == [100 * 1000]
        # 100 threads -> 2 wavefronts -> 128 issued lanes
        assert wg.issued_interactions.tolist() == [128 * 1000]
        assert wg.tiles.tolist() == [4]  # ceil(1000/256)
        assert wg.barriers.tolist() == [8]

    def test_tile_loop_full_group_no_padding(self):
        assert _tile(256, 512).padding_fraction().tolist() == [0.0]

    def test_packed_work_fills_lanes(self):
        wg = _packed(50, 1000)
        # packed mapping: padding only from the final partial slot
        assert wg.padding_fraction()[0] < 0.01
        assert wg.interactions.tolist() == [50 * 1000]
        assert wg.reduction_ops[0] > 0

    def test_packed_beats_thread_per_body_on_small_groups(self):
        small_w, small_jw = _tile(50, 1000), _packed(50, 1000)
        assert small_jw.issued_interactions[0] < small_w.issued_interactions[0]

    def test_reduction_work_is_memory_only(self):
        wg = reduction_work(n_outputs=[256], n_partials_per_output=4, wg_size=256)
        assert wg.interactions.tolist() == [0]
        assert wg.global_bytes.tolist() == [256 * 5 * 16]
        assert wg.reduction_ops.tolist() == [1024]

    def test_work_records_reject_bad_args(self):
        with pytest.raises(LaunchError, match="active thread"):
            tile_loop_work(active_threads=[4, 0], n_sources=1, wg_size=64, wavefront_size=64)
        with pytest.raises(LaunchError, match="work-group 0"):
            tile_loop_work(active_threads=[4], n_sources=[-1], wg_size=64, wavefront_size=64)
        with pytest.raises(ValueError):
            packed_tile_loop_work(n_targets=[0], n_sources=[1], wg_size=64, wavefront_size=64)
        with pytest.raises(ValueError):
            reduction_work(n_outputs=[0], n_partials_per_output=1, wg_size=64)
        with pytest.raises(ValueError):
            reduction_work(n_outputs=[1], n_partials_per_output=[0], wg_size=64)
