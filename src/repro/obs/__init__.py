"""Unified observability: trace spans, metrics, and EXPLAIN ANALYZE.

One PolyFrame action fans out through plan compilation, resilient
dispatch, and a backend engine; this package ties the layers' timings
together (see ``docs/observability.md``):

- :class:`Tracer` / :class:`Span` — hierarchical monotonic-clock trace
  spans with JSON export; enable per connector (``set_tracer``) or
  process-wide (``REPRO_TRACE=1``).  Disabled tracing is a no-op.
- :data:`metrics` — the process-local :class:`MetricsRegistry` of
  counters and histograms every instrumented layer writes to.
- :class:`OpProfile` / :func:`analyze_mode` — per-operator timing and
  row counts behind ``explain(analyze=True)`` on every backend.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, metrics
from repro.obs.profile import (
    OpProfile,
    analyze_active,
    analyze_mode,
    attach_profile,
    format_profile,
    instrument_tree,
    profiled_rows,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    ambient_span,
    get_tracer,
    set_global_tracer,
    span_for,
    tracer_for,
    tracing_active,
)

__all__ = [
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpProfile",
    "Span",
    "Tracer",
    "ambient_span",
    "analyze_active",
    "analyze_mode",
    "attach_profile",
    "format_profile",
    "get_tracer",
    "instrument_tree",
    "metrics",
    "profiled_rows",
    "set_global_tracer",
    "span_for",
    "tracer_for",
    "tracing_active",
]
