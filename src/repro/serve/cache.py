"""Content-addressed result cache: spec hash → completed run directory.

A cache entry *is* a :mod:`repro.runtime` run directory — manifest plus
checkpoints — stored at ``<root>/<spec_hash>``.  The job's final
checkpoint doubles as the cache payload: nothing is copied or re-encoded
at publish time.  The job that ran answers from the state its final
checkpoint has just written byte for byte, without reading it back;
only hits (:meth:`ResultCache.lookup`) and claims that another shard
completed first (:meth:`ResultCache.load`) go through
``read_checkpoint``, the same path as a resume.  A float64 array and the
JSON totals round-trip that path exactly, so cached and fresh results
are bit-identical.

Validity is the manifest's own completion protocol: an entry counts as a
hit only when its manifest reads back with ``status == "complete"`` and
a final checkpoint at the spec's step target.  A job that crashed
mid-run leaves an incomplete entry which :meth:`ResultCache.claim`
silently retires and re-runs — crash safety by ordering, no lock files.

Retirement is *atomic*: a stale entry is renamed to a unique
``<hash>.reclaim-*`` scratch name first and deleted under that name, so
when two shards race to reclaim the same crashed entry exactly one
``rename`` wins — the loser sees the entry already gone and proceeds —
and neither can ever delete files the winner is already rewriting under
the live path.  (The old remove-in-place scheme could throw
``FileNotFoundError`` at the losing shard, or worse, delete the winning
shard's half-written fresh run.)

:meth:`ResultCache.claim_or_resume` is the worker-shard variant of
:meth:`~ResultCache.claim`: instead of always retiring an incomplete
entry it reports one with intact checkpoints as *resumable*, so a shard
that inherits a killed sibling's job continues from the orphan's last
checkpoint — bit-identical to a fresh run by the runtime's resume
guarantee — rather than repeating finished work.
"""

from __future__ import annotations

import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError, ServeError
from repro.nbody.particles import ParticleSet
from repro.runtime.checkpoint import MANIFEST_NAME, RunManifest, read_checkpoint
from repro.runtime.session import is_resumable
from repro.serve.spec import JobSpec

__all__ = ["JobResult", "ResultCache", "load_result"]

#: Infix marking a retired entry awaiting deletion (skipped by scans).
_RECLAIM_MARK = ".reclaim-"


@dataclass(frozen=True)
class JobResult:
    """The outcome of one job: final state plus run accounting.

    ``particles`` / ``time`` are the final integrator state: the
    finished session's own arrays for a run the service stepped, or
    those loaded from the run's last checkpoint for a stored entry —
    the same bytes either way.  ``record`` is the
    :class:`~repro.core.simulation.SimulationRecord` totals dict;
    ``from_cache`` tells whether the service replayed a stored entry
    instead of stepping the simulation.
    """

    spec: JobSpec
    spec_hash: str
    run_dir: Path
    particles: ParticleSet
    time: float
    record: dict[str, Any]
    from_cache: bool

    @property
    def steps(self) -> int:
        return int(self.record["steps"])

    @property
    def positions(self) -> np.ndarray:
        return self.particles.positions

    @property
    def velocities(self) -> np.ndarray:
        return self.particles.velocities


class ResultCache:
    """Spec-hash-addressed store of completed run directories."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: lookup outcomes (observability)
        self.hits = 0
        self.misses = 0

    def entry_dir(self, spec: JobSpec) -> Path:
        """Where ``spec``'s run directory lives (existing or not)."""
        return self.root / spec.spec_hash()

    # ------------------------------------------------------------------
    def _complete_manifest(self, spec: JobSpec) -> RunManifest | None:
        path = self.entry_dir(spec)
        if not (path / MANIFEST_NAME).exists():
            return None
        try:
            manifest = RunManifest.read(path)
        except CheckpointError:
            return None
        if manifest.status != "complete" or not manifest.checkpoints:
            return None
        if manifest.checkpoints[-1].step < spec.steps:
            return None
        return manifest

    def lookup(self, spec: JobSpec) -> JobResult | None:
        """Load ``spec``'s cached result, or ``None`` on a miss.

        Incomplete or corrupt entries count as misses (and are left for
        :meth:`claim` to wipe); a hit loads the final checkpoint.
        """
        manifest = self._complete_manifest(spec)
        if manifest is None:
            self.misses += 1
            return None
        self.hits += 1
        return self.load(spec, from_cache=True)

    def load(self, spec: JobSpec, *, from_cache: bool) -> JobResult:
        """Load the result stored for ``spec`` (entry must be complete)."""
        return load_result(spec, self.entry_dir(spec), from_cache=from_cache)

    @staticmethod
    def _reclaim(path: Path) -> bool:
        """Atomically retire ``path``; returns whether *we* retired it.

        The rename is the linearisation point: exactly one concurrent
        reclaimer succeeds, everyone else observes the entry already
        gone (``FileNotFoundError``) and proceeds without touching
        whatever the winner puts in its place.
        """
        trash = path.with_name(f"{path.name}{_RECLAIM_MARK}{uuid.uuid4().hex}")
        try:
            path.rename(trash)
        except FileNotFoundError:
            return False
        except OSError:
            # Rename refused (e.g. path is a file, odd filesystem):
            # best-effort in-place removal keeps claim() usable.
            shutil.rmtree(path, ignore_errors=True)
            return True
        shutil.rmtree(trash, ignore_errors=True)
        return True

    def claim(self, spec: JobSpec) -> Path:
        """Reserve ``spec``'s entry directory for a fresh run.

        Atomically retires a stale incomplete entry (crashed earlier
        run); raises :class:`ServeError` if the entry is already
        complete — callers must :meth:`lookup` first, and in-flight
        dedup guarantees a single claimant per hash within one service.
        """
        if self._complete_manifest(spec) is not None:
            raise ServeError(
                f"cache entry for {spec.spec_hash()[:12]} is already "
                "complete; lookup() before claim()"
            )
        path = self.entry_dir(spec)
        if path.exists():
            self._reclaim(path)
        return path

    def claim_or_resume(self, spec: JobSpec) -> tuple[Path, str]:
        """Reserve ``spec``'s entry, keeping a resumable orphan.

        Returns ``(entry_dir, mode)`` with ``mode`` one of:

        * ``"fresh"`` — no usable prior state; the entry (if any) was
          retired and the caller starts from step zero;
        * ``"resume"`` — an incomplete entry with intact checkpoints
          exists (a killed shard's orphan); the caller should
          :meth:`~repro.runtime.RunSession.resume` it;
        * ``"complete"`` — the entry finished between the caller's
          ``lookup`` and this claim (another shard won the race); the
          caller should serve it from cache.
        """
        if self._complete_manifest(spec) is not None:
            return self.entry_dir(spec), "complete"
        path = self.entry_dir(spec)
        if is_resumable(path):
            return path, "resume"
        if path.exists():
            self._reclaim(path)
        return path, "fresh"

    def evict(self, spec: JobSpec) -> bool:
        """Drop ``spec``'s entry if present; returns whether one existed."""
        path = self.entry_dir(spec)
        if path.exists():
            return self._reclaim(path)
        return False

    def __len__(self) -> int:
        """Number of *complete* entries currently stored."""
        count = 0
        for child in self.root.iterdir():
            if _RECLAIM_MARK in child.name:
                continue  # retired entry awaiting deletion
            if (child / MANIFEST_NAME).exists():
                try:
                    manifest = RunManifest.read(child)
                except CheckpointError:
                    continue
                if manifest.status == "complete":
                    count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"


def load_result(
    spec: JobSpec, run_dir: str | Path, *, from_cache: bool
) -> JobResult:
    """Load a :class:`JobResult` from any completed run directory.

    The cache-root-independent loader: remote clients use it to read a
    result a worker shard reported by absolute ``run_dir``, without
    constructing a :class:`ResultCache` around the shared cache root.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.read(run_dir)
    info = manifest.latest
    particles, time, record, _last_acc = read_checkpoint(run_dir / info.path)
    return JobResult(
        spec=spec,
        spec_hash=spec.spec_hash(),
        run_dir=run_dir,
        particles=particles,
        time=time,
        record=record,
        from_cache=from_cache,
    )
