"""Checkpoint and manifest persistence for fault-tolerant runs.

A run directory looks like::

    rundir/
      manifest.json            # run-level description + checkpoint index
      ckpt_00000010/
        state.npz              # particles + physical time (repro.nbody.io)
        last_acc.npy           # cached trailing acceleration (KDK state)
        record.json            # SimulationRecord running totals

Crash safety comes from ordering, not locking: a checkpoint directory is
written completely first, and only then is it listed in ``manifest.json``
(which is itself replaced atomically via ``os.replace``).  A process
killed mid-checkpoint leaves at worst an unlisted, ignored directory;
the last *listed* checkpoint is always complete and consistent.

Bit-exactness across save/load: particle arrays ride through ``.npz``
as raw float64, the acceleration cache through ``.npy``, and the float
totals in the JSON files round-trip exactly (Python's ``json`` emits
``repr``-based shortest-round-trip floats).
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.hostmodel import PENTIUM_E5300, HostCpuModel
from repro.core.plans.base import PlanConfig
from repro.errors import CheckpointError, ConfigurationError
from repro.gpu.device import RADEON_HD_5850, DeviceSpec
from repro.nbody.io import load_array, load_snapshot, save_snapshot, snapshot_extras
from repro.nbody.particles import ParticleSet

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "CheckpointInfo",
    "RunManifest",
    "plan_config_to_dict",
    "plan_config_from_dict",
    "write_checkpoint",
    "read_checkpoint",
    "read_block_state",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: Known device/host specs a manifest can reference by name.  Custom
#: specs require passing ``plan=`` explicitly to ``RunSession.resume``.
_DEVICES: dict[str, DeviceSpec] = {RADEON_HD_5850.name: RADEON_HD_5850}
_HOSTS: dict[str, HostCpuModel] = {PENTIUM_E5300.name: PENTIUM_E5300}

#: Plan-config keys every serialized config must carry.
_REQUIRED_PLAN_KEYS = ("wg_size", "softening", "G", "theta", "leaf_size")


# ---------------------------------------------------------------------------
# Plan configuration (de)serialisation
# ---------------------------------------------------------------------------

def plan_config_to_dict(config: PlanConfig) -> dict[str, Any]:
    """JSON-friendly plan configuration (device/host referenced by name)."""
    data = {
        "device": config.device.name,
        "host": config.host.name,
        "wg_size": config.wg_size,
        "softening": config.softening,
        "G": config.G,
        "theta": config.theta,
        "leaf_size": config.leaf_size,
    }
    # Only serialized when pinned, so manifests and job-spec content hashes
    # of default-config runs are unchanged from before the fields existed.
    if config.kernel_backend is not None:
        data["kernel_backend"] = config.kernel_backend
    if config.n_rungs is not None:
        data["n_rungs"] = config.n_rungs
    if config.step_eta is not None:
        data["step_eta"] = config.step_eta
    return data


def plan_config_from_dict(data: dict[str, Any]) -> PlanConfig:
    """Rebuild a :class:`PlanConfig` from :func:`plan_config_to_dict` output.

    The numeric fields are required: a partial dict raises
    :class:`~repro.errors.ConfigurationError` naming the missing keys
    rather than being merged over defaults, so a spec hash always names
    the exact configuration it was submitted with.
    """
    missing = [key for key in _REQUIRED_PLAN_KEYS if key not in data]
    if missing:
        raise ConfigurationError(
            f"plan_config is missing required keys {missing}; pass a full "
            "dict (see plan_config_to_dict) or a PlanConfig"
        )
    device_name = data.get("device", RADEON_HD_5850.name)
    host_name = data.get("host", PENTIUM_E5300.name)
    try:
        device = _DEVICES[device_name]
    except KeyError:
        raise CheckpointError(
            f"manifest references unknown device '{device_name}'; "
            "pass plan= explicitly when resuming"
        ) from None
    try:
        host = _HOSTS[host_name]
    except KeyError:
        raise CheckpointError(
            f"manifest references unknown host model '{host_name}'; "
            "pass plan= explicitly when resuming"
        ) from None
    kernel_backend = data.get("kernel_backend")
    n_rungs = data.get("n_rungs")
    step_eta = data.get("step_eta")
    return PlanConfig(
        device=device,
        host=host,
        wg_size=_integer(data["wg_size"], "wg_size"),
        softening=_real(data["softening"], "softening"),
        G=_real(data["G"], "G"),
        theta=_real(data["theta"], "theta"),
        leaf_size=_integer(data["leaf_size"], "leaf_size"),
        kernel_backend=None if kernel_backend is None else str(kernel_backend),
        n_rungs=None if n_rungs is None else _integer(n_rungs, "n_rungs"),
        step_eta=None if step_eta is None else _real(step_eta, "step_eta"),
    )


# A bare int() would truncate ``leaf_size: 2.5`` to 2, and the spec would
# then hash and run as a config it was not submitted with; bools are ints
# to Python but never a count or a length here.
def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass
class CheckpointInfo:
    """One completed checkpoint, as listed in the manifest."""

    step: int
    time: float
    path: str
    force_passes: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckpointInfo":
        return cls(
            step=int(data["step"]),
            time=float(data["time"]),
            path=str(data["path"]),
            force_passes=int(data["force_passes"]),
        )


@dataclass
class RunManifest:
    """Run-level description persisted at ``rundir/manifest.json``."""

    plan: str
    plan_config: dict[str, Any]
    dt: float
    target_steps: int
    checkpoint_every: int
    status: str = "running"
    checkpoints: list[CheckpointInfo] = field(default_factory=list)
    format_version: int = MANIFEST_VERSION

    # ------------------------------------------------------------------
    @property
    def latest(self) -> CheckpointInfo:
        """The most recent completed checkpoint."""
        if not self.checkpoints:
            raise CheckpointError("run has no completed checkpoints to resume from")
        return self.checkpoints[-1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "plan": self.plan,
            "plan_config": self.plan_config,
            "dt": self.dt,
            "target_steps": self.target_steps,
            "checkpoint_every": self.checkpoint_every,
            "status": self.status,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        version = int(data.get("format_version", 0))
        if version > MANIFEST_VERSION:
            raise CheckpointError(
                f"manifest format {version} is newer than supported "
                f"{MANIFEST_VERSION}"
            )
        return cls(
            plan=str(data["plan"]),
            plan_config=dict(data["plan_config"]),
            dt=float(data["dt"]),
            target_steps=int(data["target_steps"]),
            checkpoint_every=int(data["checkpoint_every"]),
            status=str(data.get("status", "running")),
            checkpoints=[
                CheckpointInfo.from_dict(c) for c in data.get("checkpoints", [])
            ],
            format_version=version or MANIFEST_VERSION,
        )

    # ------------------------------------------------------------------
    def write(self, directory: str | Path) -> Path:
        """Atomically replace ``directory/manifest.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MANIFEST_NAME
        tmp = directory / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2))
        os.replace(tmp, path)
        return path

    @classmethod
    def read(cls, directory: str | Path) -> "RunManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(f"no run manifest at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt run manifest at {path}: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Checkpoint payloads
# ---------------------------------------------------------------------------

def write_checkpoint(
    directory: str | Path,
    *,
    particles: ParticleSet,
    time: float,
    plan_name: str,
    record: dict[str, Any],
    last_acceleration: np.ndarray | None,
    rungs: np.ndarray | None = None,
    substep: int = 0,
) -> Path:
    """Write one complete checkpoint directory (state + cache + record).

    Block-timestep runs pass their rung state: ``rungs`` rides inside
    ``state.npz`` (as an extra array) and ``substep`` in its metadata, so
    a mid-sync-interval checkpoint resumes bit-identically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metadata = {
        "plan": plan_name,
        "steps": record["steps"],
        "force_passes": record["force_passes"],
        "simulated_seconds": record["simulated_seconds"],
    }
    extra = None
    if rungs is not None:
        extra = {"rungs": np.asarray(rungs, dtype=np.int64)}
        metadata["substep"] = int(substep)
    save_snapshot(
        directory / "state",
        particles,
        time=time,
        metadata=metadata,
        extra=extra,
    )
    if last_acceleration is not None:
        np.save(directory / "last_acc.npy", last_acceleration)
    (directory / "record.json").write_text(json.dumps(record, indent=2))
    return directory


def read_checkpoint(
    directory: str | Path,
) -> tuple[ParticleSet, float, dict[str, Any], np.ndarray | None]:
    """Read a checkpoint back: ``(particles, time, record, last_acc)``."""
    directory = Path(directory)
    state = directory / "state.npz"
    record_path = directory / "record.json"
    if not state.exists() or not record_path.exists():
        raise CheckpointError(f"incomplete checkpoint at {directory}")
    particles, time, _meta = load_snapshot(state)
    record = json.loads(record_path.read_text())
    acc_path = directory / "last_acc.npy"
    last_acc = load_array(acc_path) if acc_path.exists() else None
    return particles, time, record, last_acc


def read_block_state(directory: str | Path) -> tuple[np.ndarray | None, int]:
    """Block-timestep state of a checkpoint: ``(rungs, substep)``.

    Fixed-dt checkpoints (no rung state in ``state.npz``) return
    ``(None, 0)``, so callers can treat every checkpoint uniformly.
    """
    directory = Path(directory)
    state = directory / "state.npz"
    if not state.exists():
        raise CheckpointError(f"incomplete checkpoint at {directory}")
    extras = snapshot_extras(state)
    rungs = extras.get("rungs")
    if rungs is None:
        return None, 0
    _particles, _time, meta = load_snapshot(state)
    return np.asarray(rungs, dtype=np.int64), int(meta.get("substep", 0))
