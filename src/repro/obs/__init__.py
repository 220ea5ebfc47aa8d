"""repro.obs — the telemetry spine for the whole stack.

Zero-dependency metrics registry (``Counter``/``Gauge``/
``Histogram`` with Prometheus exposition), contextvar-propagated
span tracing with JSONL export and a bounded in-memory span store,
and the ``repro obs report`` renderer.  See
``docs/observability.md`` for the metric glossary and trace-file
format.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    default_buckets,
    get_registry,
    null_instrumentation,
)
from .report import load_spans, render_report
from .tracing import (
    JsonlSpanExporter,
    Span,
    SpanStore,
    coerce_trace_id,
    configure_exporter,
    current_span,
    iter_trace_file,
    maybe_profile,
    new_trace_id,
    profile_step,
    reset_tracing,
    span,
    trace_step,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "Registry",
    "Span",
    "SpanStore",
    "coerce_trace_id",
    "configure_exporter",
    "current_span",
    "default_buckets",
    "get_registry",
    "iter_trace_file",
    "load_spans",
    "maybe_profile",
    "new_trace_id",
    "null_instrumentation",
    "profile_step",
    "render_report",
    "reset_tracing",
    "span",
    "trace_step",
    "tracing_enabled",
]
