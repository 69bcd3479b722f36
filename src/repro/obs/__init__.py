"""``repro.obs`` — unified tracing, metrics, and profiling layer.

The paper's §3.4 calls for operational-data-analytics tooling (DCDB,
Netti et al. SC'19) extended to carbon accounting; this package is the
stack observing *itself*: one span tracer, one metrics registry, one
set of exporters shared by the simulator, the scheduler, the serving
layer, the embodied models, and the sweep executor.

Three parts (DESIGN.md §5e):

* :mod:`repro.obs.trace` — a zero-dependency span tracer
  (``with obs.span("rjms.schedule"): ...``) with contextvars
  parent/child nesting and cross-process span adoption;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`
  (counters/gauges/latency histograms, optional labels, Prometheus
  text exposition), re-exported by :mod:`repro.service`;
* :mod:`repro.obs.export` — JSONL and Chrome-trace exporters plus the
  per-name aggregation behind ``repro obs stats``/``top``.

**Global switch.**  Everything hangs off one process-global tracer and
registry, *disabled by default*: while disabled, :func:`span` returns a
shared no-op handle and the profiling hooks skip their metric updates,
so instrumentation costs nothing measurable (<5% on the E21 grid,
asserted by the E22 bench).  Tracing never perturbs results — it reads
clocks, never RNG — and the paper-claims suite re-runs with tracing
enabled to pin that.

Usage::

    from repro import obs

    with obs.scope():                      # enable, restore on exit
        result = run_sweep(cell, grid, workers=4)
        obs.write_chrome(obs.get_tracer().spans, "trace.json")
    print(obs.metrics().render_prometheus(prefix="repro"))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Mapping, Optional

from repro.obs.export import (
    SpanStat,
    merge_spans,
    read_jsonl,
    render_stats_table,
    slowest_spans,
    span_stats,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, Span, SpanHandle, Tracer

__all__ = [
    # trace
    "Span", "SpanHandle", "Tracer", "NOOP_SPAN",
    # registry
    "MetricsRegistry", "Counter", "Gauge",
    "LatencyHistogram",
    # export
    "SpanStat", "merge_spans", "read_jsonl", "render_stats_table",
    "slowest_spans", "span_stats", "to_chrome", "to_jsonl",
    "write_chrome", "write_jsonl",
    # global switch
    "span", "traced", "scope", "enable", "disable", "enabled",
    "disabled", "get_tracer", "metrics", "reset",
]

#: the process-global tracer all instrumented hot paths report to
_TRACER = Tracer(enabled=False)

#: the process-global registry profiling gauges/counters land in
#: (service instances still default to private registries)
_REGISTRY = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def span(name: str, attrs: Optional[Mapping[str, Any]] = None):
    """Open a span on the global tracer (no-op while disabled)."""
    return _TRACER.span(name, attrs)


def traced(name: Optional[str] = None):
    """Decorator: wrap a callable in a global-tracer span."""
    return _TRACER.traced(name)


def enable() -> None:
    """Turn the observability layer on (tracing + profiling metrics)."""
    _TRACER.enable()


def disable() -> None:
    """Turn the observability layer off (the zero-overhead default)."""
    _TRACER.disable()


def enabled() -> bool:
    """Whether the observability layer is currently on."""
    return _TRACER.enabled


def disabled() -> bool:
    """Whether the observability layer is off (the default)."""
    return not _TRACER.enabled


@contextmanager
def scope(on: bool = True):
    """Temporarily enable (or disable) observability; always restores.

    Yields the global tracer so callers can read/drain spans::

        with obs.scope() as tracer:
            run()
            spans = tracer.drain()
    """
    was = _TRACER.enabled
    _TRACER.enabled = bool(on)
    try:
        yield _TRACER
    finally:
        _TRACER.enabled = was


def reset() -> None:
    """Drop all recorded spans and all global metrics (state flag kept).

    Tests and the CLI call this between workloads so one run's spans
    never leak into the next one's export.
    """
    _TRACER.reset()
    _REGISTRY.counters.clear()
    _REGISTRY.gauges.clear()
    _REGISTRY.histograms.clear()
