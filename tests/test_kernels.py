"""Tests for the force kernel-backend seam (:mod:`repro.nbody.kernels`).

Covers the registry/resolution contract, the bit-identity guarantee of
the numpy reference backend against the pre-seam blocked algorithm, the
compiled backends under the documented ``compiled-*`` oracle tolerances,
the eps2 square-then-cast policy, the coincident-pair error contract,
and the plan/config/CLI plumbing that selects a backend.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.check import (
    COMPILED_F32,
    COMPILED_F64,
    KERNEL_SHAPES,
    compiled_tolerance,
    kernel_matrix,
)
from repro.config import configure, resolve
from repro.core.plans import PlanConfig, plan_by_name
from repro.errors import ConfigurationError
from repro.exec.workspace import Workspace
from repro.gpu.kernel import tile_loop_forces
from repro.nbody.forces import (
    accelerations_from_sources,
    direct_forces,
    direct_forces_naive,
)
from repro.nbody.ic import plummer
from repro.nbody.kernels import (
    CoincidentPairError,
    KernelBackend,
    available_backends,
    compiled_backends,
    get_backend,
    known_backends,
    register_backend,
    resolve_backend,
)
from repro.runtime.checkpoint import plan_config_from_dict, plan_config_to_dict

EPS = 1e-2

_cext = get_backend("cext")

needs_cext = pytest.mark.skipif(
    not _cext.available,
    reason=f"cext backend unavailable: {_cext.unavailable_reason}",
)

#: Compiled backends that can actually run here (cext needs only a host
#: C compiler).
LIVE_COMPILED = [pytest.param("cext", marks=needs_cext)]


# ---------------------------------------------------------------------------
# Registry and resolution
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = known_backends()
        for expected in ("numpy", "cext"):
            assert expected in names

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert get_backend("numpy").kind == "reference"

    def test_compiled_backends_excludes_reference(self):
        assert "numpy" not in compiled_backends()
        for name in compiled_backends():
            assert get_backend(name).available

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("fortran77")

    def test_register_duplicate_rejected_unless_replace(self):
        numpy_backend = get_backend("numpy")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(numpy_backend)
        # replace=True is the escape hatch (re-register the same instance).
        assert register_backend(numpy_backend, replace=True) is numpy_backend

    def test_describe_backends_shape(self):
        from repro.nbody.kernels import describe_backends

        rows = {d["name"]: d for d in describe_backends()}
        assert rows["numpy"]["kind"] == "reference"
        assert rows["numpy"]["available"] is True
        assert {"name", "kind", "available", "unavailable_reason"} <= set(
            rows["cext"]
        )


class _UnavailableStub(KernelBackend):
    kind = "compiled"

    def __init__(self, name):
        self.name = name

    @property
    def available(self):
        return False

    @property
    def unavailable_reason(self):
        return "test stub is never available"

    def sources(self, *a, **kw):  # pragma: no cover - never runs
        raise NotImplementedError

    def self_forces(self, *a, **kw):  # pragma: no cover - never runs
        raise NotImplementedError


class TestResolution:
    def test_default_is_numpy(self):
        assert resolve("kernel_backend") == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        assert resolve("kernel_backend") == "cext"

    def test_configure_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cext")
        configure(kernel_backend="numpy")
        assert resolve("kernel_backend") == "numpy"

    def test_configure_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            configure(kernel_backend="not-a-backend")

    def test_explicit_instance_passes_through(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_unavailable_falls_back_with_one_warning(self, plummer_small):
        """An unavailable backend resolves to numpy: one warning, one
        ``kernels.fallbacks_total`` bump per resolution, and forces
        bitwise equal to the reference."""
        from repro import obs

        pos, mass = plummer_small.positions, plummer_small.masses
        stub = register_backend(_UnavailableStub("stub-warn-once"))
        obs.enable(reset=True)
        try:
            with pytest.warns(RuntimeWarning, match="stub-warn-once"):
                assert resolve_backend("stub-warn-once").name == "numpy"
            counter = obs.metrics().get(
                "kernels.fallbacks_total", labels={"backend": "stub-warn-once"}
            )
            assert counter.value == 1
            # Later resolutions stay silent (warn-once per backend name)
            # but still count.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = direct_forces(
                    pos, mass, softening=EPS, backend="stub-warn-once"
                )
            assert counter.value == 2
            ref = direct_forces(pos, mass, softening=EPS, backend="numpy")
            assert np.array_equal(got, ref)
        finally:
            from repro.nbody.kernels import _BACKENDS, _LOCK

            obs.disable()
            with _LOCK:
                _BACKENDS.pop(stub.name, None)

    def test_strict_raises_instead_of_falling_back(self):
        stub = register_backend(_UnavailableStub("stub-strict"))
        try:
            with pytest.raises(ConfigurationError, match="unavailable"):
                resolve_backend("stub-strict", strict=True)
        finally:
            from repro.nbody.kernels import _BACKENDS, _LOCK

            with _LOCK:
                _BACKENDS.pop(stub.name, None)


# ---------------------------------------------------------------------------
# numpy backend: bit-identity against the pre-seam algorithm
# ---------------------------------------------------------------------------

def _preseam_blocked_self(positions, masses, *, eps2, dtype, block):
    """Verbatim re-derivation of the pre-seam blocked self-interaction
    loop (same operation order), as an independent bit-identity oracle.
    """
    positions = np.asarray(positions, dtype=dtype)
    masses = np.asarray(masses, dtype=dtype)
    n = positions.shape[0]
    out = np.zeros((n, 3), dtype=dtype)
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        d = positions[s0:s1][np.newaxis, :, :] - positions[:, np.newaxis, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        r2 += eps2
        rows = np.arange(s0, s1)
        r2[rows, rows - s0] = np.inf
        inv_r3 = np.power(r2, -1.5)
        inv_r3 *= masses[s0:s1][np.newaxis, :]
        out += np.einsum("ij,ijk->ik", inv_r3, d)
    return out


class TestNumpyBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block", [7, 64, 2048])
    def test_direct_forces_matches_preseam_loop(self, plummer_small, dtype, block):
        pos, mass = plummer_small.positions, plummer_small.masses
        got = direct_forces(
            pos, mass, softening=EPS, include_self=False,
            dtype=dtype, block=block, backend="numpy",
        )
        expected = _preseam_blocked_self(
            pos, mass, eps2=EPS * EPS, dtype=dtype, block=block
        )
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, expected)

    def test_backend_none_defaults_to_numpy_bitwise(self, plummer_small):
        pos, mass = plummer_small.positions, plummer_small.masses
        default = direct_forces(pos, mass, softening=EPS)
        named = direct_forces(pos, mass, softening=EPS, backend="numpy")
        assert np.array_equal(default, named)

    def test_numpy_backend_wrapper_matches_raw_loops(self, plummer_small):
        """NumpyBackend.sources/self_forces agree bitwise with the entry
        points (the wrapper folds G into masses; G=1 here)."""
        pos = np.asarray(plummer_small.positions)
        mass = np.asarray(plummer_small.masses)
        backend = get_backend("numpy")
        out = np.zeros((pos.shape[0], 3))
        backend.self_forces(pos, mass, eps2=EPS * EPS, out=out)
        assert np.array_equal(
            out, direct_forces(pos, mass, softening=EPS, include_self=False)
        )


# ---------------------------------------------------------------------------
# eps2 policy: square in float64, cast to the arithmetic dtype once
# ---------------------------------------------------------------------------

class TestEps2Policy:
    def test_float32_uses_square_then_cast(self):
        # 0.1 is inexact in binary: squaring the rounded float32 softening
        # gives a different ulp than rounding the float64 square.  The
        # fixed paths must use the latter.
        softening = 0.1
        eps2_correct = np.float32(softening * softening)
        eps2_buggy = np.float32(softening) * np.float32(softening)
        assert eps2_correct != eps2_buggy  # the bug is observable at all

        # Separation well inside the softening length so eps2 dominates
        # r2 and its last ulp survives into the force.
        pos = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]], dtype=np.float32)
        mass = np.array([1.0, 1.0], dtype=np.float32)

        def two_body(eps2):
            # Kernel-identical arithmetic: r2 in f32, then r2**-1.5.
            d = np.float32(0.01)
            r2 = np.float32(d * d) + eps2
            return d * np.float32(np.power(r2, np.float32(-1.5)))

        got = accelerations_from_sources(
            pos[:1], pos[1:], mass[1:], softening=softening, dtype=np.float32
        )
        assert got[0, 0] == two_body(eps2_correct)
        assert got[0, 0] != two_body(eps2_buggy)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tile_loop_uses_square_then_cast(self, dtype):
        softening = 0.1
        pos = np.array(
            [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.5, 0.0]], dtype=dtype
        )
        mass = np.ones(3, dtype=dtype)
        tiled = tile_loop_forces(
            pos, pos, mass, wg_size=2, softening=softening, dtype=dtype
        )
        blocked = direct_forces(pos, mass, softening=softening, dtype=dtype)
        # Same square-then-cast eps2 on both paths; float32 agreement
        # would be systematically off by the eps2 ulp otherwise.
        np.testing.assert_allclose(
            tiled, blocked, rtol=(1e-13 if dtype is np.float64 else 1e-5)
        )

    def test_float64_path_unchanged_by_policy(self, plummer_small):
        # For float64 targets square-then-cast is a no-op: softening**2
        # is already computed in float64.
        pos, mass = plummer_small.positions, plummer_small.masses
        got = direct_forces(pos, mass, softening=EPS, include_self=False)
        naive = direct_forces_naive(pos, mass, softening=EPS)
        np.testing.assert_allclose(got, naive, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Coincident-pair contract
# ---------------------------------------------------------------------------

class TestCoincidentPairs:
    def _coincident_set(self):
        # Bodies 3 and 4 coincide; with block=2 they land in the *last*
        # block, after earlier blocks have already been summed.
        pos = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.5, 0.5, 0.5],
                [0.5, 0.5, 0.5],
            ]
        )
        mass = np.ones(5)
        return pos, mass

    def test_error_names_the_pairs(self):
        pos, mass = self._coincident_set()
        with pytest.raises(ValueError, match="coincident") as exc_info:
            direct_forces(
                pos, mass, softening=0.0, include_self=False,
                backend="numpy",
            )
        err = exc_info.value
        assert isinstance(err, CoincidentPairError)
        assert set(err.pairs) == {(3, 4), (4, 3)}
        assert "(3, 4)" in str(err)

    def test_late_block_pairs_use_global_indices(self):
        # With block=2 the offending sources sit in the second block
        # ([2, 3]); the reported source index must be the *global* body
        # index 3, not the in-block offset 1, and the raise happens at
        # the first offending block (before block [4] is even formed).
        pos, mass = self._coincident_set()
        with pytest.raises(CoincidentPairError) as exc_info:
            direct_forces(
                pos, mass, softening=0.0, include_self=False, block=2,
                backend="numpy",
            )
        assert set(exc_info.value.pairs) == {(4, 3)}

    def test_validation_precedes_accumulation(self):
        # The bad pair sits in a late block; raising there (not after a
        # silent inf/nan propagates) is the contract.  Nothing about the
        # output should be observable, but at minimum no nan/inf warning
        # fires and the error is the coincidence error, not a numerics one.
        pos, mass = self._coincident_set()
        with np.errstate(all="raise"):
            with pytest.raises(CoincidentPairError):
                direct_forces(
                    pos, mass, softening=0.0, include_self=False, block=2
                )

    def test_nonzero_softening_is_fine(self):
        pos, mass = self._coincident_set()
        acc = direct_forces(pos, mass, softening=EPS, include_self=False)
        assert np.all(np.isfinite(acc))
        # Coincident bodies exert zero force on each other either way.
        d34 = acc[3] - acc[4]
        mutual = direct_forces(
            pos[[3, 4]], mass[[3, 4]], softening=EPS, include_self=False
        )
        assert np.array_equal(mutual, np.zeros((2, 3)))
        assert np.allclose(d34, 0.0)

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    def test_compiled_backends_raise_same_pairs(self, name):
        pos, mass = self._coincident_set()
        with pytest.raises(ValueError, match="coincident") as exc_info:
            direct_forces(
                pos, mass, softening=0.0, include_self=False, backend=name
            )
        assert isinstance(exc_info.value, CoincidentPairError)
        assert set(exc_info.value.pairs) == {(3, 4), (4, 3)}


# ---------------------------------------------------------------------------
# Compiled backends vs the reference (the oracle matrix)
# ---------------------------------------------------------------------------

class TestCompiledBackends:
    @pytest.mark.parametrize("name", LIVE_COMPILED)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sources_within_tolerance(self, plummer_small, name, dtype):
        pos = np.asarray(plummer_small.positions, dtype=dtype)
        mass = np.asarray(plummer_small.masses, dtype=dtype)
        got = accelerations_from_sources(
            pos, pos, mass, softening=EPS, dtype=dtype, backend=name
        )
        ref = accelerations_from_sources(
            pos, pos, mass, softening=EPS, dtype=dtype, backend="numpy"
        )
        tol = compiled_tolerance(dtype)
        np.testing.assert_allclose(
            got, ref, rtol=tol.max_rel, atol=tol.max_rel * np.abs(ref).max()
        )

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    def test_kernel_matrix_all_green(self, plummer_small, name):
        comparisons = kernel_matrix(
            plummer_small.positions,
            plummer_small.masses,
            kernel_backends=[name],
            softening=EPS,
        )
        # backend x {direct, blocked, bh-leaf} x {f64, f32}
        assert len(comparisons) == len(KERNEL_SHAPES) * 2
        for c in comparisons:
            assert c.ok, f"{c.candidate}: {c.deviation}"
        labels = {c.candidate for c in comparisons}
        for shape in KERNEL_SHAPES:
            assert any(f"kernel:{shape}/{name}/" in lab for lab in labels)

    @pytest.mark.cli
    @needs_cext
    def test_check_cli_reports_every_kernel_row(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "report.json"
        assert main([
            "check", "--n", "48", "--plans", "i", "--workers", "1",
            "--steps", "2", "--kernel-backends", "cext", "--json", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        # 1 backend x 3 shapes x 2 dtypes, none skipped
        assert len(doc["kernels"]) == len(KERNEL_SHAPES) * 2 == 6
        assert not doc["kernels_skipped"]
        assert doc["kernels_ok"]

    def test_kernel_matrix_rejects_unavailable_strictly(self):
        stub = register_backend(_UnavailableStub("stub-matrix"))
        try:
            with pytest.raises(ConfigurationError, match="unavailable"):
                kernel_matrix(
                    np.zeros((4, 3)), np.ones(4), kernel_backends=["stub-matrix"]
                )
        finally:
            from repro.nbody.kernels import _BACKENDS, _LOCK

            with _LOCK:
                _BACKENDS.pop(stub.name, None)

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    def test_accumulate_and_G_semantics(self, name):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((32, 3))
        mass = rng.uniform(0.5, 1.5, 32)
        tgt = rng.standard_normal((16, 3))
        # G scales each call's own contribution, never what `out` already
        # holds, so two accumulated halves with G != 1 equal one call over
        # all the sources (up to summation order) on both backends.
        out_c = np.zeros((16, 3))
        out_n = np.zeros((16, 3))
        for backend, out in ((name, out_c), ("numpy", out_n)):
            accelerations_from_sources(
                tgt, pos[:16], mass[:16], softening=EPS, G=2.0,
                out=out, accumulate=True, backend=backend,
            )
            accelerations_from_sources(
                tgt, pos[16:], mass[16:], softening=EPS, G=2.0,
                out=out, accumulate=True, backend=backend,
            )
            whole = accelerations_from_sources(
                tgt, pos, mass, softening=EPS, G=2.0, backend=backend
            )
            np.testing.assert_allclose(out, whole, rtol=1e-12, atol=1e-12)
        tol = compiled_tolerance(np.float64)
        np.testing.assert_allclose(out_c, out_n, rtol=1e-10,
                                   atol=tol.max_rel * np.abs(out_n).max())

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    def test_noncontiguous_out_is_staged(self, name):
        rng = np.random.default_rng(4)
        pos = rng.standard_normal((24, 3))
        mass = np.ones(24)
        board = np.zeros((24, 6))
        view = board[:, ::2]  # non-contiguous (24, 3) view
        assert not view.flags.c_contiguous
        accelerations_from_sources(
            pos, pos, mass, softening=EPS, out=view, backend=name
        )
        dense = accelerations_from_sources(
            pos, pos, mass, softening=EPS, backend=name
        )
        assert np.array_equal(view, dense)

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tile_loop_compiled_matches_reference(self, name, dtype):
        from repro.gpu.counters import CostCounters

        p = plummer(96, seed=5)
        pos = np.asarray(p.positions, dtype=dtype)
        mass = np.asarray(p.masses, dtype=dtype)
        counters_c, counters_r = CostCounters(), CostCounters()
        compiled = tile_loop_forces(
            pos, pos, mass, wg_size=32, softening=EPS, dtype=dtype,
            counters=counters_c, backend=name,
        )
        ref = tile_loop_forces(
            pos, pos, mass, wg_size=32, softening=EPS, dtype=dtype,
            counters=counters_r, backend="numpy",
        )
        tol = compiled_tolerance(dtype)
        np.testing.assert_allclose(
            compiled, ref, rtol=tol.max_rel,
            atol=tol.max_rel * np.abs(ref).max(),
        )
        # Tile/traffic accounting is schedule-level, not backend-level.
        assert counters_c.interactions == counters_r.interactions
        assert counters_c.lds_bytes == counters_r.lds_bytes
        assert counters_c.barriers == counters_r.barriers


# ---------------------------------------------------------------------------
# Plan / config / checkpoint plumbing
# ---------------------------------------------------------------------------

class TestPlanPlumbing:
    def test_plan_config_validates_backend_name(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            PlanConfig(kernel_backend="who-knows")

    def test_plan_config_dict_roundtrip(self):
        config = PlanConfig(softening=EPS, kernel_backend="cext")
        data = plan_config_to_dict(config)
        assert data["kernel_backend"] == "cext"
        restored = plan_config_from_dict(data)
        assert restored.kernel_backend == "cext"

    def test_default_config_dict_has_no_backend_key(self):
        # Spec/manifest hashes of pre-seam configs must not change.
        data = plan_config_to_dict(PlanConfig(softening=EPS))
        assert "kernel_backend" not in data
        assert plan_config_from_dict(data).kernel_backend is None

    @pytest.mark.parametrize("name", LIVE_COMPILED)
    @pytest.mark.parametrize("plan_name", ["i", "j", "w", "jw"])
    def test_plans_run_on_compiled_backend(self, plummer_small, plan_name, name):
        pos, mass = plummer_small.positions, plummer_small.masses
        ref_plan = plan_by_name(plan_name, PlanConfig(softening=EPS, wg_size=64))
        cmp_plan = plan_by_name(
            plan_name,
            PlanConfig(softening=EPS, wg_size=64, kernel_backend=name),
        )
        ref = ref_plan.accelerations(pos, mass)
        got = cmp_plan.accelerations(pos, mass)
        # Device plans run float32 arithmetic, so the f32 compiled
        # tolerance is the relevant budget.
        tol = compiled_tolerance(np.float32)
        np.testing.assert_allclose(
            got, ref, rtol=tol.max_rel, atol=tol.max_rel * np.abs(ref).max()
        )

    def test_unavailable_plan_backend_degrades(self):
        stub = register_backend(_UnavailableStub("stub-plan"))
        try:
            plan = plan_by_name(
                "j", PlanConfig(softening=EPS, kernel_backend="stub-plan")
            )
            with pytest.warns(RuntimeWarning, match="stub-plan"):
                assert plan._kernel_backend() == "numpy"
        finally:
            from repro.nbody.kernels import _BACKENDS, _LOCK

            with _LOCK:
                _BACKENDS.pop(stub.name, None)


# ---------------------------------------------------------------------------
# Workspace interaction
# ---------------------------------------------------------------------------

class TestWorkspace:
    def test_explicit_workspace_reused(self, plummer_small):
        pos, mass = plummer_small.positions, plummer_small.masses
        ws = Workspace()
        a = direct_forces(pos, mass, softening=EPS, workspace=ws, block=64)
        buffers_after_first = ws.stats()["n_buffers"]
        b = direct_forces(pos, mass, softening=EPS, workspace=ws, block=64)
        assert ws.stats()["n_buffers"] == buffers_after_first
        assert np.array_equal(a, b)
