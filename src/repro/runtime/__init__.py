"""repro.runtime — fault-tolerant run layer over :class:`Simulation`.

The PTPM time axis keeps force passes flowing without stalls; at
campaign scale the same discipline must survive process death.  This
package turns a simulation into a *restartable pipeline* in the style of
production N-body codes (Bonsai's periodic snapshot + restart loop):

* :mod:`repro.runtime.session` — :class:`RunSession`: periodic
  checkpointing while running, bit-exact :meth:`RunSession.resume` after
  an interruption;
* :mod:`repro.runtime.checkpoint` — the on-disk format: a JSON manifest
  with an atomically updated checkpoint index over
  :mod:`repro.nbody.io` snapshots.

Failure handling *within* a run (task retry, fault injection) lives in :mod:`repro.exec`; the relevant types are re-exported
here because checkpointing and retry are configured together.
"""

from repro.exec.faults import FaultInjector, RetryPolicy
from repro.runtime.checkpoint import (
    CheckpointInfo,
    RunManifest,
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime.session import RunSession, is_resumable

__all__ = [
    "RunSession",
    "is_resumable",
    "RunManifest",
    "CheckpointInfo",
    "read_checkpoint",
    "write_checkpoint",
    "FaultInjector",
    "RetryPolicy",
]
