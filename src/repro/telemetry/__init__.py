"""``repro.telemetry`` — structured study observability.

A cross-cutting layer over the whole pipeline: :mod:`repro.nn` training
loops, the :mod:`repro.experiments` runner/resilience/executor stack, the
serving fleet, and the CLI all emit structured JSONL trace events through
a process-global :class:`Telemetry` handle (span timers, counters, gauges)
and live metrics through a process-global :class:`MetricsRegistry`
(counters, gauges, bucketed histograms) — both disabled by default at zero
cost.  Consumers: :func:`summarize_trace` / ``repro-study trace`` for
post-hoc analysis, :func:`export_chrome_trace` for Perfetto, the serving
``/metrics`` endpoint for live dashboards, and :class:`ProgressReporter`
for live sweep status.
"""

from .chrome import chrome_trace_events, export_chrome_trace, validate_chrome_trace
from .events import (
    NULL,
    FileTelemetry,
    NullTelemetry,
    RecordingTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_scope,
)
from .metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    NULL_METRICS,
    QUEUE_DEPTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    get_metrics,
    histogram_quantile,
    latency_summary_ms,
    log_buckets,
    metrics_scope,
    parse_prometheus_text,
    render_prometheus,
    set_metrics,
)
from .progress import ProgressReporter, format_eta
from .summary import TraceSummary, render_trace_summary, summarize_trace
from .trace import (
    SpanNode,
    TraceError,
    hierarchy_signature,
    read_trace,
    repair_trace,
    span_tree,
    validate_trace,
)

__all__ = [
    "Telemetry",
    "FileTelemetry",
    "RecordingTelemetry",
    "NullTelemetry",
    "NULL",
    "get_telemetry",
    "set_telemetry",
    "telemetry_scope",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "metrics_scope",
    "log_buckets",
    "LATENCY_BUCKETS_S",
    "BATCH_SIZE_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "histogram_quantile",
    "latency_summary_ms",
    "render_prometheus",
    "parse_prometheus_text",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "TraceError",
    "SpanNode",
    "read_trace",
    "repair_trace",
    "validate_trace",
    "span_tree",
    "hierarchy_signature",
    "TraceSummary",
    "summarize_trace",
    "render_trace_summary",
    "ProgressReporter",
    "format_eta",
]
