"""Golden-snapshot store: explicit blessing, exact replay verification.

The differential oracle checks that schedules agree with each other
*today*; the golden store checks that today agrees with the last state a
human explicitly approved.  A golden entry records the sha256 digest of
a run's final state (positions, velocities, masses, time) plus enough
metadata to reproduce it; verification reruns the case and compares
digests — simulations here are deterministic end to end, so "equal
digest" is exactly "bit-identical final state".

Regeneration is never implicit: a mismatching or missing entry fails
verification until ``repro-nbody check --golden DIR --bless`` (or
:meth:`GoldenStore.bless`) is run deliberately, which is the reviewable
"the physics changed and we accept it" event.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, VerificationError
from repro.nbody.particles import ParticleSet

__all__ = ["GoldenStore", "state_digest"]


def state_digest(particles: ParticleSet, time: float = 0.0) -> str:
    """sha256 over the exact bytes of the final state.

    Array bytes are hashed in C order as float64 — the dtype the
    integrator holds state in — so the digest changes iff any bit of the
    physical state changes.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<qd", particles.n, time))
    for arr in (particles.positions, particles.velocities, particles.masses):
        h.update(arr.astype("<f8", copy=False).tobytes(order="C"))
    return h.hexdigest()


class GoldenStore:
    """Directory of blessed case digests (one JSON file per case).

    Case ids are filesystem-safe slugs derived from the physics fields
    (``plummer-n256-s0-jw-dt0.001-steps20``), so a repo can review the
    golden directory diff case by case.  A run on a compiled kernel
    backend adds its name (``...-steps20-cext``), since compiled digests
    differ from the reference's.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    @staticmethod
    def case_id(
        *,
        workload: str,
        n: int,
        seed: int,
        plan: str,
        dt: float,
        steps: int,
        kernel_backend: str | None = None,
    ) -> str:
        """The id of one case; ``kernel_backend`` names a compiled kernel
        backend (``None`` for the NumPy reference, whose ids name none)."""
        slug = f"{workload}-n{n}-s{seed}-{plan}-dt{dt!r}-steps{steps}"
        if kernel_backend is not None:
            slug += f"-{kernel_backend}"
        if "/" in slug or "\\" in slug:
            raise ConfigurationError(f"unusable golden case id: {slug!r}")
        return slug

    def _path(self, case_id: str) -> Path:
        return self.directory / f"{case_id}.json"

    def cases(self) -> list[str]:
        """Sorted ids of every blessed case."""
        if not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def load(self, case_id: str) -> dict[str, Any] | None:
        """The blessed entry for a case, or ``None``."""
        path = self._path(case_id)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise VerificationError(
                f"golden entry {path} is unreadable: {exc}"
            ) from exc
        if "digest" not in entry:
            raise VerificationError(f"golden entry {path} has no digest")
        return entry

    # ------------------------------------------------------------------
    def bless(
        self, case_id: str, digest: str, *, meta: dict[str, Any] | None = None
    ) -> Path:
        """Record (or replace) the approved digest for a case."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(case_id)
        entry = {"case": case_id, "digest": digest, **(meta or {})}
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    def verify(self, case_id: str, digest: str) -> dict[str, Any]:
        """Compare a fresh digest against the blessed one.

        Returns ``{"case", "status", "digest", ...}`` with status
        ``"match"``, ``"mismatch"`` or ``"missing"`` — the caller decides
        whether missing is an error (check mode) or an invitation
        (bless mode).
        """
        entry = self.load(case_id)
        if entry is None:
            return {"case": case_id, "status": "missing", "digest": digest}
        status = "match" if entry["digest"] == digest else "mismatch"
        return {
            "case": case_id,
            "status": status,
            "digest": digest,
            "blessed_digest": entry["digest"],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GoldenStore({str(self.directory)!r}, cases={len(self.cases())})"
