"""repro.check — differential & invariant verification.

The paper's four plans are four *schedules* of one physics; the exec
engine's backends are schedules of those schedules.  This package is the
machine-checkable definition of "same answer" the rest of the library
builds on:

* :mod:`repro.check.oracle` — the differential oracle: per-body force
  error, max-ulp deviation and bit-identity between any reference and
  candidate plan/backend, with documented tolerances per comparison axis
  (:func:`assert_bit_identical` / :func:`assert_within` replace the
  ad-hoc ``np.array_equal`` gates of earlier PRs);
* :mod:`repro.check.invariants` — physical invariants (energy drift,
  linear/angular momentum, finite-state sentinels, net-force balance,
  pairwise-antisymmetry spot checks) under pluggable per-plan
  :class:`TolerancePolicy` tolerances;
* :mod:`repro.check.guards` — :class:`RunGuard`, the opt-in runtime
  watchdog :class:`repro.RunSession` and the serve scheduler evaluate at
  every checkpoint/slice, failing a run with
  :class:`~repro.errors.VerificationError` instead of serving bad
  physics;
* :mod:`repro.check.golden` — golden-snapshot store with an explicit
  ``--bless`` regeneration workflow.

CLI: ``repro-nbody check`` runs the plan x backend matrix, the invariant
runs and (optionally) the golden comparisons, with a ``--json`` report.
"""

from repro.check.golden import GoldenStore, state_digest
from repro.check.guards import RunGuard, default_guard
from repro.check.invariants import (
    PP_POLICY,
    STRICT_POLICY,
    TREE_POLICY,
    InvariantBaseline,
    InvariantEngine,
    InvariantReport,
    InvariantResult,
    TolerancePolicy,
    policy_for,
)
from repro.check.oracle import (
    BIT_IDENTICAL,
    COMPILED_F32,
    COMPILED_F64,
    KERNEL_SHAPES,
    PP_CROSS_PLAN,
    PP_VS_DIRECT,
    TREE_CROSS_PLAN,
    TREE_VS_DIRECT,
    Deviation,
    DifferentialOracle,
    ForceComparison,
    ForceTolerance,
    assert_bit_identical,
    assert_within,
    compare_arrays,
    compiled_tolerance,
    kernel_matrix,
    ulp_distance,
)

__all__ = [
    "BIT_IDENTICAL",
    "COMPILED_F32",
    "COMPILED_F64",
    "KERNEL_SHAPES",
    "PP_CROSS_PLAN",
    "PP_VS_DIRECT",
    "TREE_CROSS_PLAN",
    "TREE_VS_DIRECT",
    "PP_POLICY",
    "STRICT_POLICY",
    "TREE_POLICY",
    "Deviation",
    "DifferentialOracle",
    "ForceComparison",
    "ForceTolerance",
    "GoldenStore",
    "InvariantBaseline",
    "InvariantEngine",
    "InvariantReport",
    "InvariantResult",
    "RunGuard",
    "TolerancePolicy",
    "assert_bit_identical",
    "assert_within",
    "compare_arrays",
    "compiled_tolerance",
    "kernel_matrix",
    "default_guard",
    "policy_for",
    "state_digest",
    "ulp_distance",
]
