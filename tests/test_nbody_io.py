"""Tests for snapshot I/O."""

import threading
import time
import zipfile

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.nbody.io import load_snapshot, save_snapshot, snapshot_extras
from repro.runtime.checkpoint import read_checkpoint


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

    def test_stored_uncompressed_and_deflated_still_loads(
        self, tmp_path, plummer_small
    ):
        path = save_snapshot(tmp_path / "snap", plummer_small, time=0.25)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        deflated = tmp_path / "deflated.npz"
        np.savez_compressed(deflated, **arrays)
        loaded, t, _ = load_snapshot(deflated)
        assert loaded.positions.tobytes() == plummer_small.positions.tobytes()
        assert loaded.velocities.tobytes() == plummer_small.velocities.tobytes()
        assert t == 0.25

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


class TestConcurrentReads:
    def test_one_reader_at_a_time_inside_the_header_parse(
        self, tmp_path, plummer_small, monkeypatch
    ):
        """NumPy parses a ``.npy`` header with ``ast.literal_eval``, which
        two threads cannot run at once on CPython 3.11; snapshot, extras
        and ``last_acc.npy`` reads must never overlap there."""
        ckpt = tmp_path / "ckpt"
        save_snapshot(
            ckpt / "state.npz", plummer_small,
            extra={"rungs": np.zeros(len(plummer_small), dtype=np.int64)},
        )
        (ckpt / "record.json").write_text("{}")
        np.save(ckpt / "last_acc.npy", np.zeros((len(plummer_small), 3)))

        # the namespace NumPy's array reader looks its header parser up in
        fmt = np.lib.format.read_array.__globals__
        real_header = fmt["_read_array_header"]
        lock = threading.Lock()
        inside, peak = [0], [0]

        def slow_header(*args, **kwargs):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.002)
                return real_header(*args, **kwargs)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setitem(fmt, "_read_array_header", slow_header)
        barrier = threading.Barrier(4)
        errors = []

        def reader():
            barrier.wait()
            try:
                for _ in range(3):
                    _, _, _, last_acc = read_checkpoint(ckpt)
                    assert last_acc is not None
                    assert set(snapshot_extras(ckpt / "state.npz")) == {"rungs"}
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert peak[0] == 1
