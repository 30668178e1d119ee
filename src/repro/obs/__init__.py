"""Observability: span tracing, metrics, and profiling hooks.

``repro.obs`` is the stdlib-only observability layer that every other
subsystem reports into:

:mod:`repro.obs.trace`
    Hierarchical span tracer — ``with span("engine.delays_n", n=3):``
    context managers instrument the session dispatch, both engine
    backends, the compiled-kernel phases, disk-cache reads/writes,
    and every server route.  Off by default with a no-op-level
    disabled path; enable with
    ``REPRO_TRACE=jsonl:<path>``, ``Session(trace=...)``, or
    ``repro ... --trace PATH``.

:mod:`repro.obs.metrics`
    Process-global metrics registry (counters, gauges, fixed-bucket
    histograms with label support) scraped at ``GET /v1/metrics`` in
    Prometheus text exposition format and printed by
    ``repro metrics``.

See ``docs/observability.md`` for the quickstart and the metrics
catalog.
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    registry,
    render_prometheus,
    validate_exposition,
)
from .trace import (
    Span,
    Tracer,
    active_tracer,
    configure,
    enabled,
    read_jsonl,
    span,
    unconfigure,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_tracer",
    "configure",
    "enabled",
    "percentile",
    "read_jsonl",
    "registry",
    "render_prometheus",
    "span",
    "unconfigure",
    "validate_exposition",
]
