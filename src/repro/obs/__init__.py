"""End-to-end observability: metrics registry, span tracing, exporters.

Every subsystem reports into the package-default
:class:`~repro.obs.registry.MetricsRegistry` — per-batch phase
histograms from the epoch driver, ID-map probe counters from sampling,
byte counters from the feature loaders, page-cache and NVMe counters
from the storage tier, stall accounting from the pipeline simulators.

Instrumentation is **opt-in**: the default registry starts disabled and
hands out shared no-op singletons, so the per-batch hot path costs
nothing until someone calls :func:`enable` (or scopes a registry with
:func:`instrumented`). Export the collected state with
:func:`~repro.obs.exporters.to_prometheus` /
:func:`~repro.obs.exporters.to_snapshot`, or from the command line::

    python -m repro.obs dump --framework fastgl --dataset reddit
    python -m repro.obs compare before.json after.json

The ``obs`` scenario of ``python -m repro.gate`` is the perf-regression
gate: it replays a deterministic instrumented suite and fails when any
tracked metric drifts past its tolerance against the committed
baseline.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.exporters import (
    flatten_snapshot,
    to_prometheus,
    to_snapshot,
    write_snapshot,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NoopMetric,
    get_registry,
    set_registry,
)
from repro.obs.trace import Span, Tracer, spans_from_chrome_events


def enable() -> MetricsRegistry:
    """Enable the default registry (and return it)."""
    registry = get_registry()
    registry.enable()
    return registry


def disable() -> MetricsRegistry:
    """Disable the default registry (and return it)."""
    registry = get_registry()
    registry.disable()
    return registry


@contextmanager
def instrumented(registry: MetricsRegistry | None = None):
    """Scope a fresh (or given) enabled registry as the default.

    The previous default is restored on exit, so tests and CLI runs can
    collect into a private registry without leaking global state.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.enable()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NoopMetric",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "flatten_snapshot",
    "get_registry",
    "instrumented",
    "set_registry",
    "spans_from_chrome_events",
    "to_prometheus",
    "to_snapshot",
    "write_snapshot",
]
