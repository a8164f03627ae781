"""Plan registry: resolve PTPM plans by name everywhere.

The four paper plans used to be wired into the CLI, the benchmarks and
the run layer by direct class imports; adding a fifth plan meant touching
every call site.  The registry inverts that: plan classes register
themselves under their short name and every consumer — CLI choices,
benchmark sweeps, checkpoint manifests, job specs — resolves through

* :func:`register` — class decorator used by the plan modules (and by
  downstream extensions: registering a custom :class:`Plan` subclass
  makes it addressable from the CLI and the job service for free);
* :func:`get_plan` — instantiate by name, with either a full
  :class:`PlanConfig` or individual config fields as keywords
  (``get_plan("jw", wg_size=128)``); unknown keywords are forwarded to
  the plan constructor (``get_plan("jw", overlap=False)``);
* :func:`resolve_plan` — accept *a name or an instance* uniformly (what
  :class:`~repro.core.simulation.Simulation` and the serve layer use);
* :func:`available_plans` — the sorted registered names.

:mod:`repro.core.plans` re-exports this module, and the ``repro`` facade
its names (``repro.register``, ``repro.get_plan``, ...).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, TypeVar

from repro.core.plans.base import Plan, PlanConfig
from repro.errors import ConfigurationError

__all__ = [
    "register",
    "unregister",
    "get_plan",
    "resolve_plan",
    "available_plans",
]

P = TypeVar("P", bound=type)

_REGISTRY: dict[str, type[Plan]] = {}

#: PlanConfig field names accepted as keywords by :func:`get_plan`.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(PlanConfig))


def register(name: str | None = None) -> Callable[[P], P]:
    """Class decorator registering a :class:`Plan` subclass by name.

    ``name`` defaults to the class's ``name`` attribute, which must match
    for checkpoint manifests and job-spec hashes to round-trip (a plan is
    persisted by ``plan.name`` and rebuilt through the registry).
    """

    def decorate(cls: P) -> P:
        if not (isinstance(cls, type) and issubclass(cls, Plan)):
            raise ConfigurationError(
                f"only Plan subclasses can be registered, got {cls!r}"
            )
        key = name if name is not None else cls.name
        if not key or key == "?":
            raise ConfigurationError(
                f"plan class {cls.__name__} has no usable name to register"
            )
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"plan name '{key}' is already registered to {existing.__name__}"
            )
        _REGISTRY[key] = cls
        return cls

    return decorate


def unregister(name: str) -> None:
    """Remove a registered plan (primarily for tests of custom plans)."""
    _REGISTRY.pop(name, None)


def available_plans() -> tuple[str, ...]:
    """Sorted names of every registered plan."""
    return tuple(sorted(_REGISTRY))


def get_plan(
    name: str,
    config: PlanConfig | None = None,
    *,
    engine=None,
    **kwargs,
) -> Plan:
    """Instantiate a registered plan by name.

    Keyword arguments naming :class:`PlanConfig` fields build the config
    (mutually exclusive with ``config=``); any other keywords are passed
    through to the plan constructor.  ``engine`` (a
    :class:`repro.exec.ExecutionEngine`) controls how the functional
    force path fans out; ``None`` uses the process default.
    """
    if isinstance(name, Plan):
        raise ConfigurationError(
            "get_plan() takes a plan name; use resolve_plan() to accept "
            "a name or an instance uniformly"
        )
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown plan '{name}'; choose from {list(available_plans())}"
        ) from None
    config_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in _CONFIG_FIELDS}
    if config_kwargs:
        if config is not None:
            raise ConfigurationError(
                "pass either config= or PlanConfig field keywords, not both"
            )
        config = PlanConfig(**config_kwargs)
    return cls(config, engine=engine, **kwargs)


def resolve_plan(
    plan: str | Plan,
    config: PlanConfig | None = None,
    *,
    engine=None,
    **kwargs,
) -> Plan:
    """Accept a plan *name or instance* uniformly; returns an instance.

    An instance passes through untouched — ``config``/keywords only apply
    when resolving by name (supplying them alongside an instance is an
    error rather than a silent no-op).
    """
    if isinstance(plan, Plan):
        if config is not None or kwargs:
            raise ConfigurationError(
                "plan configuration keywords only apply when the plan is "
                "given by name; configure the instance directly instead"
            )
        return plan
    if not isinstance(plan, str):
        raise ConfigurationError(
            f"plan must be a registered name or a Plan instance, got {plan!r}"
        )
    return get_plan(plan, config, engine=engine, **kwargs)
