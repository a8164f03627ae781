"""repro.obs — unified tracing & metrics for the PTPM reproduction.

The paper's whole argument is about *where time goes* — kernel vs host vs
transfer along the time axis, load balance across compute units along the
space axis.  This package makes that accounting first-class:

* :mod:`repro.obs.tracing` — a hierarchical span tracer with wall-clock
  and *simulated-hardware* timelines;
* :mod:`repro.obs.metrics` — counters, gauges and bounded-reservoir
  histograms with percentile summaries, all supporting Prometheus-style
  ``labels={...}`` timeseries;
* :mod:`repro.obs.export` — Chrome-trace (Perfetto), JSON-lines,
  Prometheus text exposition and markdown exporters;
* :mod:`repro.obs.ledger` — a durable SQLite run ledger (``runs`` /
  ``slices`` / ``events``) that survives the process, written as an
  observer by :mod:`repro.runtime` sessions and the :mod:`repro.serve`
  scheduler, and read by ``repro-nbody top`` / ``repro-nbody report``.

Instrumentation throughout the library goes through the module-level
facade here and is a near-zero-cost no-op unless :data:`enabled` is true::

    from repro import obs

    obs.enable(reset=True)
    sim.run(100)
    obs.export.write_chrome_trace("trace.json", obs.tracer(), obs.metrics())

The switch is the plain module attribute ``obs.enabled`` — every facade
helper re-reads it per call, so both ``obs.enable()`` and a direct
``obs.enabled = True`` assignment take effect immediately.  The usual
entry points are ``repro-nbody profile <experiment>`` and the ``--trace``
flag on any CLI subcommand.

The run-runtime and fault-tolerance layers report through here too:
``repro.runtime`` emits ``runtime.run`` / ``runtime.checkpoint`` spans, a
``runtime.resume`` instant and the ``checkpoints_total`` counter;
``repro.exec`` adds ``exec.retry`` spans with ``task_retries_total`` for
recovered task failures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.obs import export  # noqa: F401  (re-exported submodule)
from repro.obs import ledger  # noqa: F401  (re-exported submodule)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Span, SpanTracer

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "capture",
    "tracer",
    "metrics",
    "span",
    "instant",
    "complete_span",
    "sim_span",
    "advance_sim",
    "sim_now",
    "inc",
    "observe",
    "set_gauge",
    "Span",
    "SpanTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export",
    "ledger",
]

#: Master switch: when False every facade helper is a no-op.
enabled: bool = False

_tracer = SpanTracer()
_metrics = MetricsRegistry()


def tracer() -> SpanTracer:
    """The process-global span tracer."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def enable(*, reset: bool = False) -> None:
    """Turn instrumentation on (optionally clearing prior data)."""
    global enabled
    if reset:
        _tracer.reset()
        _metrics.reset()
    enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data is kept until ``reset``)."""
    global enabled
    enabled = False


def reset() -> None:
    """Clear all recorded spans and metrics."""
    _tracer.reset()
    _metrics.reset()


@contextmanager
def capture(*, reset: bool = True):
    """Enable tracing for a scope; yields ``(tracer, metrics)``.

    Restores the previous on/off state on exit, keeping the recorded data
    available for export.
    """
    global enabled
    prior = enabled
    enable(reset=reset)
    try:
        yield _tracer, _metrics
    finally:
        enabled = prior


# ---------------------------------------------------------------------------
# Facade helpers — each one re-reads ``enabled`` so the disabled path costs
# a single attribute check.
# ---------------------------------------------------------------------------

def span(name: str, **attrs: Any):
    """Open a wall-clock span (no-op context manager when disabled)."""
    if not enabled:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration event."""
    if enabled:
        _tracer.instant(name, **attrs)


def complete_span(name: str, t0_wall: float, t1_wall: float, **attrs: Any) -> None:
    """Record an already-finished wall span (absolute perf_counter times)."""
    if enabled:
        _tracer.complete_span(name, t0_wall, t1_wall, **attrs)


def sim_span(
    name: str, t0: float, t1: float, *, track: str = "device", **attrs: Any
) -> None:
    """Record an interval on the simulated-hardware timeline."""
    if enabled:
        _tracer.sim_span(name, t0, t1, track=track, **attrs)


def advance_sim(dt: float) -> None:
    """Advance the simulated clock by ``dt`` seconds."""
    if enabled:
        _tracer.advance_sim(dt)


def sim_now() -> float:
    """Current simulated-clock time (0.0 while disabled/never advanced)."""
    return _tracer.sim_time


def inc(name: str, amount: float = 1, *, labels: dict | None = None) -> None:
    """Increment a counter (optionally one labeled timeseries of it)."""
    if enabled:
        _metrics.counter(name, labels=labels).inc(amount)


def observe(name: str, value: float, *, labels: dict | None = None) -> None:
    """Record a histogram sample (optionally per labeled timeseries)."""
    if enabled:
        _metrics.histogram(name, labels=labels).observe(value)


def set_gauge(name: str, value: float, *, labels: dict | None = None) -> None:
    """Set a gauge (optionally one labeled timeseries of it)."""
    if enabled:
        _metrics.gauge(name, labels=labels).set(value)
