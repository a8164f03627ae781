"""repro.nbody.kernels — the force kernel-backend seam.

Every force path in the library (direct PP, blocked self-interaction,
Barnes-Hut leaf/walk evaluation) funnels into one of two primitive
kernels; this package lets those primitives run on interchangeable
*backends*:

=========  =============  =====================================================
name       kind           notes
=========  =============  =====================================================
numpy      reference      always available; defines the bit-exact semantics
cext       compiled       C via the host compiler + ctypes; no build-time deps
=========  =============  =====================================================

Selection precedence (first hit wins): explicit ``backend=`` argument /
``PlanConfig.kernel_backend``, then ``repro.configure(kernel_backend=)``
(the ``--kernel-backend`` CLI flag calls it), then the
``REPRO_KERNEL_BACKEND`` environment variable, then ``"numpy"``.

The compiled backend is **not** bit-identical to the reference
(reassociated summation, fused rsqrt); it is validated by
:class:`repro.check.DifferentialOracle` under the documented
``compiled-f64`` / ``compiled-f32`` tolerances — run
``repro-nbody check --kernel-backends auto`` for the full matrix.

Resolution degrades gracefully: asking for an unavailable backend logs a
warning once, bumps the ``kernels.fallbacks_total`` counter and returns
the NumPy reference, so a run configured for ``cext`` still completes on
a host without a C compiler.
"""

from __future__ import annotations

import threading
import warnings

from repro.nbody.kernels import settings
from repro.nbody.kernels.base import CoincidentPairError, KernelBackend
from repro.nbody.kernels.cext import CExtensionBackend
from repro.nbody.kernels.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "CoincidentPairError",
    "NumpyBackend",
    "CExtensionBackend",
    "get_backend",
    "resolve_backend",
    "register_backend",
    "known_backends",
    "available_backends",
    "compiled_backends",
    "describe_backends",
]

_LOCK = threading.Lock()

#: Backend instances by name (constructed eagerly — construction is
#: cheap; compilation/imports happen lazily on first availability probe).
_BACKENDS: dict[str, KernelBackend] = {}

#: Backend names a fallback warning has already been emitted for.
_WARNED: set[str] = set()


def register_backend(backend: KernelBackend, *, replace: bool = False) -> KernelBackend:
    """Add a backend to the registry (the third-party hook)."""
    from repro.errors import ConfigurationError

    with _LOCK:
        if backend.name in _BACKENDS and not replace:
            raise ConfigurationError(
                f"kernel backend '{backend.name}' is already registered"
            )
        _BACKENDS[backend.name] = backend
    return backend


def _builtin_backends() -> None:
    register_backend(NumpyBackend())
    register_backend(CExtensionBackend())


_builtin_backends()


def known_backends() -> tuple[str, ...]:
    """Every registered backend name, available or not."""
    with _LOCK:
        return tuple(_BACKENDS)


def available_backends() -> tuple[str, ...]:
    """Registered backends that can run on this host right now."""
    with _LOCK:
        candidates = list(_BACKENDS.values())
    return tuple(b.name for b in candidates if b.available)


def compiled_backends() -> tuple[str, ...]:
    """Available non-reference backends (what ``check`` auto-selects)."""
    with _LOCK:
        candidates = list(_BACKENDS.values())
    return tuple(b.name for b in candidates if b.kind != "reference" and b.available)


def describe_backends() -> list[dict]:
    """JSON-friendly description of every registered backend."""
    with _LOCK:
        candidates = list(_BACKENDS.values())
    return [b.describe() for b in candidates]


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name`` (available or not)."""
    from repro.errors import ConfigurationError

    with _LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown kernel backend '{name}'; registered: "
            f"{', '.join(known_backends())}"
        )
    return backend


def resolve_backend(
    spec: "str | KernelBackend | None" = None, *, strict: bool = False
) -> KernelBackend:
    """The backend a force pass should run on.

    ``spec`` is a backend instance, a registered name, or ``None`` (fall
    through the settings precedence chain).  An unavailable selection
    degrades to the NumPy reference — warning once per backend name and
    bumping ``kernels.fallbacks_total`` — unless ``strict`` is true, in
    which case it raises :class:`~repro.errors.ConfigurationError`.
    """
    from repro.errors import ConfigurationError

    backend = spec if isinstance(spec, KernelBackend) else get_backend(
        spec if spec is not None else settings.kernel_backend_name()
    )
    if backend.available:
        return backend
    reason = backend.unavailable_reason or "unavailable"
    if strict:
        raise ConfigurationError(
            f"kernel backend '{backend.name}' is unavailable: {reason}"
        )
    with _LOCK:
        first = backend.name not in _WARNED
        _WARNED.add(backend.name)
    if first:
        warnings.warn(
            f"kernel backend '{backend.name}' is unavailable ({reason}); "
            "falling back to the numpy reference kernels",
            RuntimeWarning,
            stacklevel=2,
        )
    from repro import obs

    obs.inc("kernels.fallbacks_total", labels={"backend": backend.name})
    return get_backend("numpy")
