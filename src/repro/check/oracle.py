"""Differential oracle: one physics, many schedules, one verdict.

The paper's four plans (i/j/w/jw) are *schedules* of the same force
computation, and the execution engine's worker counts (serial or a
thread pool) are schedules of the same schedule — so their outputs must
agree, and "agree" must be machine-checkable rather than re-derived ad
hoc at every call site.  This module is the single place that turns two acceleration
arrays into a verdict:

* :func:`compare_arrays` measures the deviation between a reference and a
  candidate array — per-body absolute/relative force error, RMS relative
  error, max ulp distance, and bit-identity;
* :class:`ForceTolerance` states what a comparison is *allowed* to show
  (``BIT_IDENTICAL`` for worker-count changes, documented RMS bounds
  for cross-plan and plan-vs-direct comparisons);
* :class:`DifferentialOracle` runs a workload through a reference plan
  and any candidate plan/engine combination and produces
  :class:`ForceComparison` verdicts, including the plan matrix the
  ``repro-nbody check`` CLI reports;
* :func:`assert_bit_identical` / :func:`assert_within` are the drop-in
  replacements for the ``np.array_equal`` gates previously copy-pasted
  through tests, benchmarks and CI — they raise
  :class:`~repro.errors.VerificationError` with the measured deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.core.plans.base import Plan
from repro.core.plans.registry import get_plan, resolve_plan
from repro.errors import ConfigurationError, VerificationError
from repro.exec.engine import ExecutionEngine

__all__ = [
    "Deviation",
    "ForceTolerance",
    "ForceComparison",
    "DifferentialOracle",
    "BIT_IDENTICAL",
    "PP_CROSS_PLAN",
    "TREE_CROSS_PLAN",
    "PP_VS_DIRECT",
    "TREE_VS_DIRECT",
    "COMPILED_F64",
    "COMPILED_F32",
    "KERNEL_SHAPES",
    "compiled_tolerance",
    "kernel_matrix",
    "compare_arrays",
    "ulp_distance",
    "assert_bit_identical",
    "assert_within",
]


def _monotonic_bits(a: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns to integers ordered like the floats.

    Standard two's-complement trick: non-negative floats keep their bit
    pattern, negative floats are flipped below zero, so the integer
    difference of two finite floats counts the representable values
    between them (their ulp distance).
    """
    bits = a.view(np.int64)
    return np.where(bits >= 0, bits, np.int64(-(2**63) + 1) - bits - 1)


def ulp_distance(ref: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Elementwise ulp distance between two float64 arrays.

    Non-finite elements (in either array) count as ``2**62`` — far
    beyond any tolerance — unless bit-identical, which counts 0.
    """
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    cand = np.ascontiguousarray(cand, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ConfigurationError(
            f"cannot compare shapes {ref.shape} and {cand.shape}"
        )
    dist = np.abs(_monotonic_bits(ref) - _monotonic_bits(cand))
    bad = ~(np.isfinite(ref) & np.isfinite(cand))
    if bad.any():
        same_bits = ref.view(np.int64) == cand.view(np.int64)
        dist = np.where(bad, np.where(same_bits, 0, np.int64(2**62)), dist)
    return dist


@dataclass(frozen=True)
class Deviation:
    """Measured disagreement between a reference and a candidate array."""

    n: int
    bit_identical: bool
    max_abs_error: float
    max_rel_error: float
    rms_rel_error: float
    max_ulps: int
    #: body index with the largest relative error (-1 when bit-identical)
    worst_body: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "bit_identical": self.bit_identical,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "rms_rel_error": self.rms_rel_error,
            "max_ulps": self.max_ulps,
            "worst_body": self.worst_body,
        }

    def __str__(self) -> str:
        if self.bit_identical:
            return f"bit-identical over {self.n} bodies"
        return (
            f"max_rel={self.max_rel_error:.3e} rms_rel={self.rms_rel_error:.3e} "
            f"max_ulps={self.max_ulps} worst_body={self.worst_body}"
        )


def compare_arrays(ref: np.ndarray, cand: np.ndarray) -> Deviation:
    """Measure how a candidate ``(n, 3)`` array deviates from a reference.

    Relative error is per *body*: ``|a_cand - a_ref| / |a_ref|`` in the
    euclidean norm, with a floor of the largest reference magnitude times
    float64 epsilon so a zero-vector reference row cannot divide by zero.
    """
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    cand = np.ascontiguousarray(cand, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ConfigurationError(
            f"cannot compare shapes {ref.shape} and {cand.shape}"
        )
    if ref.ndim == 1:
        ref = ref[:, np.newaxis]
        cand = cand[:, np.newaxis]
    n = ref.shape[0]
    if ref.tobytes() == cand.tobytes():
        return Deviation(
            n=n,
            bit_identical=True,
            max_abs_error=0.0,
            max_rel_error=0.0,
            rms_rel_error=0.0,
            max_ulps=0,
            worst_body=-1,
        )
    diff = np.linalg.norm(cand - ref, axis=-1)
    mag = np.linalg.norm(ref, axis=-1)
    floor = max(float(mag.max(initial=0.0)), 1.0) * np.finfo(np.float64).eps
    rel = diff / np.maximum(mag, floor)
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(cand).all() and np.isfinite(ref).all()
    return Deviation(
        n=n,
        bit_identical=False,
        max_abs_error=float(diff.max()) if finite else float("inf"),
        max_rel_error=float(rel.max()) if finite else float("inf"),
        rms_rel_error=float(np.sqrt(np.mean(rel**2))) if finite else float("inf"),
        max_ulps=int(ulp_distance(ref, cand).max()),
        worst_body=int(np.argmax(rel)),
    )


@dataclass(frozen=True)
class ForceTolerance:
    """What a comparison is allowed to show before it fails.

    ``None`` fields are not enforced.  ``bit_identical=True`` demands the
    arrays share every bit (the engine's cross-backend promise);
    otherwise any combination of ulp / relative bounds applies.
    """

    name: str = "custom"
    bit_identical: bool = False
    max_ulps: int | None = None
    max_rel: float | None = None
    rms_rel: float | None = None

    def violations(self, d: Deviation) -> list[str]:
        """Human-readable list of every bound the deviation exceeds."""
        out = []
        if self.bit_identical and not d.bit_identical:
            out.append(f"expected bit-identical, got {d}")
        if self.max_ulps is not None and d.max_ulps > self.max_ulps:
            out.append(f"max_ulps {d.max_ulps} > {self.max_ulps}")
        if self.max_rel is not None and d.max_rel_error > self.max_rel:
            out.append(f"max_rel {d.max_rel_error:.3e} > {self.max_rel:.3e}")
        if self.rms_rel is not None and d.rms_rel_error > self.rms_rel:
            out.append(f"rms_rel {d.rms_rel_error:.3e} > {self.rms_rel:.3e}")
        return out

    def admits(self, d: Deviation) -> bool:
        return not self.violations(d)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "bit_identical": self.bit_identical,
            "max_ulps": self.max_ulps,
            "max_rel": self.max_rel,
            "rms_rel": self.rms_rel,
        }


#: Backend/engine changes reschedule identical arithmetic: zero slack.
BIT_IDENTICAL = ForceTolerance(name="bit-identical", bit_identical=True)
#: i vs j: same all-pairs sums, different tiling -> float32 ordering only.
PP_CROSS_PLAN = ForceTolerance(name="pp-cross-plan", rms_rel=1e-5, max_rel=1e-3)
#: w vs jw share walks; only kernel-side float32 summation order differs.
TREE_CROSS_PLAN = ForceTolerance(name="tree-cross-plan", rms_rel=1e-4, max_rel=1e-2)
#: all-pairs float32 kernels vs the float64 direct reference.
PP_VS_DIRECT = ForceTolerance(name="pp-vs-direct", rms_rel=1e-4, max_rel=1e-2)
#: Barnes-Hut (theta=0.6 class) vs the float64 direct reference.
TREE_VS_DIRECT = ForceTolerance(name="tree-vs-direct", rms_rel=1e-2, max_rel=1.0)
#: Compiled kernel backends vs the NumPy reference, float64 arithmetic.
#: Vectorised/fused summation reassociates the same float64 sum; measured
#: worst-case deviation is ~1e-14 at n=16k, bounded here with margin.
COMPILED_F64 = ForceTolerance(name="compiled-f64", rms_rel=1e-12, max_rel=1e-10)
#: Compiled kernel backends vs the NumPy reference, float32 arithmetic.
#: Same reassociation budget scaled to float32 epsilon (~6e-8 per op).
COMPILED_F32 = ForceTolerance(name="compiled-f32", rms_rel=1e-5, max_rel=1e-3)


def compiled_tolerance(dtype: "np.dtype | type") -> ForceTolerance:
    """The documented compiled-vs-reference tolerance for a dtype."""
    return COMPILED_F64 if np.dtype(dtype) == np.float64 else COMPILED_F32


def _plan_traits(plan: "Plan | str") -> tuple[str, str]:
    """(name, method) for a plan instance or registered plan name."""
    if isinstance(plan, str):
        from repro.core.plans.registry import _REGISTRY

        cls = _REGISTRY.get(plan)
        if cls is None:
            raise ConfigurationError(f"unknown plan '{plan}'")
        return plan, getattr(cls, "method", "pp")
    return plan.name, plan.method


def expected_tolerance(
    ref_plan: "Plan | str", cand_plan: "Plan | str"
) -> ForceTolerance:
    """The documented tolerance for a (reference, candidate) plan pair."""
    ref_name, ref_method = _plan_traits(ref_plan)
    cand_name, cand_method = _plan_traits(cand_plan)
    if ref_name == cand_name:
        return BIT_IDENTICAL
    if ref_method == "pp" and cand_method == "pp":
        return PP_CROSS_PLAN
    if ref_method == "bh" and cand_method == "bh":
        return TREE_CROSS_PLAN
    return TREE_VS_DIRECT


@dataclass(frozen=True)
class ForceComparison:
    """One oracle verdict: labels, deviation, tolerance, pass/fail."""

    reference: str
    candidate: str
    deviation: Deviation
    tolerance: ForceTolerance
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.tolerance.admits(self.deviation)

    @property
    def bit_identical(self) -> bool:
        return self.deviation.bit_identical

    def raise_if_failed(self) -> "ForceComparison":
        """Raise :class:`VerificationError` unless within tolerance."""
        violations = self.tolerance.violations(self.deviation)
        if violations:
            raise VerificationError(
                f"differential check failed ({self.candidate} vs "
                f"{self.reference}, tolerance '{self.tolerance.name}'): "
                + "; ".join(violations),
                report=self,
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "reference": self.reference,
            "candidate": self.candidate,
            "ok": self.ok,
            "deviation": self.deviation.to_dict(),
            "tolerance": self.tolerance.to_dict(),
            **({"meta": self.meta} if self.meta else {}),
        }

    def __str__(self) -> str:
        status = "OK " if self.ok else "FAIL"
        return (
            f"[{status}] {self.candidate} vs {self.reference} "
            f"({self.tolerance.name}): {self.deviation}"
        )


class DifferentialOracle:
    """Runs candidates against a reference plan and issues verdicts.

    ``reference`` is a plan instance or registered name (resolved with
    ``plan_config``).  The reference force pass always executes on the
    serial in-process engine, so every verdict is anchored to one
    schedule-free answer per workload.
    """

    def __init__(self, reference: Plan | str, plan_config=None) -> None:
        self.reference = resolve_plan(reference, plan_config)

    def reference_accelerations(
        self, positions: np.ndarray, masses: np.ndarray
    ) -> np.ndarray:
        with ExecutionEngine() as engine:
            ref_plan = get_plan(
                self.reference.name, self.reference.config, engine=engine
            )
            return ref_plan.accelerations(positions, masses)

    def compare(
        self,
        candidate: Plan | str,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        engine: ExecutionEngine | None = None,
        tolerance: ForceTolerance | None = None,
        plan_config=None,
    ) -> ForceComparison:
        """Differential verdict for one candidate plan/engine.

        ``engine`` rewires the candidate's force execution (the worker
        axis); ``tolerance`` overrides the documented default for the
        plan pair (:func:`expected_tolerance`).
        """
        if isinstance(candidate, Plan):
            cand_plan = candidate
            if engine is not None:
                cand_plan = get_plan(cand_plan.name, cand_plan.config, engine=engine)
        else:
            cand_plan = get_plan(
                candidate,
                plan_config if plan_config is not None else self.reference.config,
                engine=engine,
            )
        tol = tolerance or expected_tolerance(self.reference, cand_plan)
        backend = engine.effective_backend if engine is not None else "serial"
        with obs.span(
            "check.oracle",
            reference=self.reference.name,
            candidate=cand_plan.name,
            backend=backend,
            n=len(masses),
        ):
            ref = self.reference_accelerations(positions, masses)
            acc = cand_plan.accelerations(positions, masses)
            deviation = compare_arrays(ref, acc)
        comparison = ForceComparison(
            reference=f"{self.reference.name}/serial",
            candidate=f"{cand_plan.name}/{backend}",
            deviation=deviation,
            tolerance=tol,
            meta={"n": len(masses)},
        )
        obs.inc("check.comparisons_total")
        if not comparison.ok:
            obs.inc("check.failures_total")
        return comparison

    def matrix(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        plans: Sequence[str] = ("i", "j", "w", "jw"),
        workers: int = 2,
        plan_config=None,
    ) -> list[ForceComparison]:
        """The plan verdict matrix for one workload.

        For every plan, a serial run is the anchor and is compared
        against this oracle's reference plan under the documented
        cross-plan tolerance.  With ``workers`` above 1, the plan also
        runs on a thread pool of that size, which must reproduce the
        anchor bit-for-bit.
        """
        config = plan_config if plan_config is not None else self.reference.config
        ref = self.reference_accelerations(positions, masses)
        results: list[ForceComparison] = []
        for plan_name in plans:
            with ExecutionEngine() as eng:
                plan = get_plan(plan_name, config, engine=eng)
                serial_acc = plan.accelerations(positions, masses)
            results.append(
                ForceComparison(
                    reference=f"{self.reference.name}/serial",
                    candidate=f"{plan_name}/serial",
                    deviation=compare_arrays(ref, serial_acc),
                    tolerance=expected_tolerance(self.reference, plan),
                    meta={"axis": "plan", "n": len(masses)},
                )
            )
            if workers > 1:
                with ExecutionEngine(workers) as eng:
                    acc = get_plan(plan_name, config, engine=eng).accelerations(
                        positions, masses
                    )
                results.append(
                    ForceComparison(
                        reference=f"{plan_name}/serial",
                        candidate=f"{plan_name}/thread",
                        deviation=compare_arrays(serial_acc, acc),
                        tolerance=BIT_IDENTICAL,
                        meta={"axis": "backend", "n": len(masses)},
                    )
                )
        obs.inc("check.comparisons_total", len(results))
        failed = sum(not r.ok for r in results)
        if failed:
            obs.inc("check.failures_total", failed)
        return results

    def kernel_matrix(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        kernel_backends: Sequence[str],
        shapes: Sequence[str] | None = None,
        dtypes: Sequence["np.dtype | type"] = (np.float64, np.float32),
    ) -> list[ForceComparison]:
        """Compiled-backend x kernel-shape x dtype verdicts.

        Convenience wrapper over the module-level :func:`kernel_matrix`,
        taking softening/G from this oracle's reference plan config.
        """
        cfg = self.reference.config
        return kernel_matrix(
            positions,
            masses,
            kernel_backends=kernel_backends,
            shapes=KERNEL_SHAPES if shapes is None else shapes,
            dtypes=dtypes,
            softening=cfg.softening,
            G=cfg.G,
        )


#: Kernel shapes the kernel matrix exercises: the diagonal-excluded
#: self-interaction, the tiled targets x sources rectangle, and the
#: Barnes-Hut leaf/walk evaluation.
KERNEL_SHAPES = ("direct", "blocked", "bh-leaf")


def _kernel_shape_eval(
    shape: str,
    backend: str,
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    softening: float,
    G: float,
    dtype: "np.dtype | type",
) -> np.ndarray:
    """One kernel shape evaluated end to end on one kernel backend."""
    if shape == "direct":
        from repro.nbody.forces import direct_forces

        return direct_forces(
            positions, masses, softening=softening, G=G,
            include_self=False, dtype=dtype, backend=backend,
        )
    if shape == "blocked":
        from repro.gpu.kernel import tile_loop_forces

        return tile_loop_forces(
            positions, positions, masses, wg_size=64,
            softening=softening, G=G, dtype=dtype, backend=backend,
        )
    if shape == "bh-leaf":
        from repro.tree.bh_force import accelerations_from_walks
        from repro.tree.octree import build_octree
        from repro.tree.walks import generate_walks

        tree = build_octree(positions, masses, leaf_size=16)
        walks = generate_walks(tree, theta=0.6, group_size=32)
        return accelerations_from_walks(
            walks, softening=softening, G=G, dtype=dtype, backend=backend,
        )
    raise ConfigurationError(
        f"unknown kernel shape '{shape}'; known: {', '.join(KERNEL_SHAPES)}"
    )


def kernel_matrix(
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    kernel_backends: Sequence[str],
    shapes: Sequence[str] = KERNEL_SHAPES,
    dtypes: Sequence["np.dtype | type"] = (np.float64, np.float32),
    softening: float = 1e-2,
    G: float = 1.0,
) -> list[ForceComparison]:
    """Compiled-backend verdicts: backend x kernel shape x dtype.

    Every requested backend is run through each kernel shape
    (:data:`KERNEL_SHAPES`) in each dtype and compared against the NumPy
    reference of the *same* shape and dtype, under the documented
    ``compiled-f64`` / ``compiled-f32`` tolerances.  Backends are resolved
    strictly — asking for an unavailable one raises
    :class:`~repro.errors.ConfigurationError` (callers that want a clean
    skip filter on availability first, as ``repro-nbody check`` does).
    """
    from repro.nbody.kernels import resolve_backend

    results: list[ForceComparison] = []
    for backend in kernel_backends:
        kb = resolve_backend(backend, strict=True)
        for shape in shapes:
            for dtype in dtypes:
                dt = np.dtype(dtype)
                with obs.span(
                    "check.kernel_oracle",
                    backend=kb.name,
                    shape=shape,
                    dtype=dt.name,
                    n=len(masses),
                ):
                    ref = _kernel_shape_eval(
                        shape, "numpy", positions, masses,
                        softening=softening, G=G, dtype=dtype,
                    )
                    cand = _kernel_shape_eval(
                        shape, kb.name, positions, masses,
                        softening=softening, G=G, dtype=dtype,
                    )
                    deviation = compare_arrays(ref, cand)
                results.append(
                    ForceComparison(
                        reference=f"kernel:{shape}/numpy/{dt.name}",
                        candidate=f"kernel:{shape}/{kb.name}/{dt.name}",
                        deviation=deviation,
                        tolerance=compiled_tolerance(dtype),
                        meta={"axis": "kernel", "n": len(masses)},
                    )
                )
    obs.inc("check.comparisons_total", len(results))
    failed = sum(not r.ok for r in results)
    if failed:
        obs.inc("check.failures_total", failed)
    return results


def assert_bit_identical(
    ref: np.ndarray, cand: np.ndarray, *, context: str = ""
) -> Deviation:
    """Require two arrays to share every bit; the old ``np.array_equal`` gate.

    Returns the (trivial) deviation on success so callers can log it;
    raises :class:`VerificationError` with the measured deviation —
    including how *far* apart the arrays are in ulps — on failure.
    """
    return assert_within(ref, cand, BIT_IDENTICAL, context=context)


def assert_within(
    ref: np.ndarray,
    cand: np.ndarray,
    tolerance: ForceTolerance,
    *,
    context: str = "",
) -> Deviation:
    """Require a candidate array to sit within ``tolerance`` of a reference."""
    deviation = compare_arrays(ref, cand)
    violations = tolerance.violations(deviation)
    if violations:
        where = f" [{context}]" if context else ""
        raise VerificationError(
            f"differential check failed{where} (tolerance "
            f"'{tolerance.name}'): " + "; ".join(violations),
            report=deviation,
        )
    return deviation
