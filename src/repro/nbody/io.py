"""Snapshot I/O: persist particle states.

Snapshots are NumPy ``.npz`` archives (portable, versioned by a format
tag) holding positions, velocities, masses and metadata.  The checkpoints
of :mod:`repro.runtime` are written with them.  Archives are stored
uncompressed: float64 state barely compresses (an n=1,024 state is 58 KB
stored and 48 KB deflated), and writing it deflated takes about four
times as long.  Archives written compressed by earlier versions load the
same way.

Every archive read holds one process-wide lock: ``np.load`` parses a
``.npy`` header with ``ast.literal_eval``, and on CPython 3.11 two
threads parsing at once can raise ``SystemError: AST constructor
recursion depth mismatch``.  An ``.npz`` parses a member's header when
the member is read, so the lock spans the whole archive, not the open.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import WorkloadError
from repro.nbody.particles import ParticleSet

__all__ = ["save_snapshot", "load_snapshot", "snapshot_extras", "load_array"]

#: Format tag embedded in every snapshot for forward compatibility.
FORMAT_VERSION = 1

#: Serialises NumPy archive reads (see the module docstring).
_READ_LOCK = threading.Lock()


def save_snapshot(
    path: str | Path,
    particles: ParticleSet,
    *,
    time: float = 0.0,
    metadata: dict[str, Any] | None = None,
    extra: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write a particle snapshot to ``path`` (``.npz`` appended if missing).

    ``metadata`` must be JSON-serialisable; it round-trips through
    :func:`load_snapshot`.  ``extra`` arrays (e.g. block-timestep rung
    state) are stored under ``extra_<name>`` keys and recovered with
    :func:`snapshot_extras`; old snapshots simply have none, so the
    format version is unchanged.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = dict(metadata or {})
    try:
        meta_json = json.dumps(meta)
    except TypeError as exc:
        raise WorkloadError(f"snapshot metadata is not JSON-serialisable: {exc}") from exc
    extras = {}
    for name, arr in (extra or {}).items():
        if not name.isidentifier():
            raise WorkloadError(f"extra array name {name!r} is not an identifier")
        extras[f"extra_{name}"] = np.asarray(arr)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        format_version=np.int64(FORMAT_VERSION),
        time=np.float64(time),
        positions=particles.positions,
        velocities=particles.velocities,
        masses=particles.masses,
        metadata=np.bytes_(meta_json.encode("utf-8")),
        **extras,
    )
    return path


def load_snapshot(path: str | Path) -> tuple[ParticleSet, float, dict[str, Any]]:
    """Read a snapshot; returns ``(particles, time, metadata)``."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"snapshot not found: {path}")
    with _READ_LOCK, np.load(path) as data:
        if "format_version" not in data:
            raise WorkloadError(f"{path} is not a repro snapshot")
        version = int(data["format_version"])
        if version > FORMAT_VERSION:
            raise WorkloadError(
                f"snapshot format {version} is newer than supported {FORMAT_VERSION}"
            )
        particles = ParticleSet(data["positions"], data["velocities"], data["masses"])
        time = float(data["time"])
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
    return particles, time, metadata


def snapshot_extras(path: str | Path) -> dict[str, np.ndarray]:
    """Extra arrays stored in a snapshot (``{}`` for snapshots without any)."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"snapshot not found: {path}")
    out: dict[str, np.ndarray] = {}
    with _READ_LOCK, np.load(path) as data:
        if "format_version" not in data:
            raise WorkloadError(f"{path} is not a repro snapshot")
        for key in data.files:
            if key.startswith("extra_"):
                out[key[len("extra_"):]] = np.array(data[key])
    return out


def load_array(path: str | Path) -> np.ndarray:
    """Read one ``.npy`` array under the archive read lock."""
    with _READ_LOCK:
        return np.load(path)
