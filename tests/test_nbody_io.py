"""Tests for snapshot I/O."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.nbody.io import load_snapshot, save_snapshot


class TestSnapshotRoundtrip:
    def test_roundtrip_preserves_state(self, tmp_path, plummer_small):
        path = save_snapshot(tmp_path / "snap", plummer_small, time=1.5,
                             metadata={"plan": "jw", "theta": 0.6})
        loaded, t, meta = load_snapshot(path)
        np.testing.assert_array_equal(loaded.positions, plummer_small.positions)
        np.testing.assert_array_equal(loaded.velocities, plummer_small.velocities)
        np.testing.assert_array_equal(loaded.masses, plummer_small.masses)
        assert t == 1.5
        assert meta == {"plan": "jw", "theta": 0.6}

    def test_extension_appended(self, tmp_path, plummer_small):
        path = save_snapshot(tmp_path / "snap", plummer_small)
        assert path.suffix == ".npz"

    def test_explicit_npz_not_doubled(self, tmp_path, plummer_small):
        path = save_snapshot(tmp_path / "snap.npz", plummer_small)
        assert path.name == "snap.npz"

    def test_creates_parent_dirs(self, tmp_path, plummer_small):
        path = save_snapshot(tmp_path / "a" / "b" / "snap", plummer_small)
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            load_snapshot(tmp_path / "nope.npz")

    def test_non_snapshot_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(WorkloadError, match="not a repro snapshot"):
            load_snapshot(path)

    def test_unserialisable_metadata_rejected(self, tmp_path, plummer_small):
        with pytest.raises(WorkloadError, match="JSON"):
            save_snapshot(tmp_path / "snap", plummer_small, metadata={"x": object()})

    def test_future_format_rejected(self, tmp_path, plummer_small):
        path = save_snapshot(tmp_path / "snap", plummer_small)
        data = dict(np.load(path))
        data["format_version"] = np.int64(999)
        np.savez(path, **data)
        with pytest.raises(WorkloadError, match="newer"):
            load_snapshot(path)
