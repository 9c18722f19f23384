"""Observability layer: run telemetry, tracing, self-profiling, reports.

Six pieces (see ``docs/OBSERVABILITY.md``):

* :mod:`~repro.observability.telemetry` — the :class:`Telemetry` hub
  (span tracing, JSONL sink, metrics in ``hub.metrics``) threaded
  through the VM, the cost tracker, the batched slicing engine, and
  the parallel profiling runtime; zero-cost when disabled; schema v2
  carries trace context (trace/span ids, ``pid``/``seq`` stamps) and
  relays worker-process events back into the parent's stream;
* :mod:`~repro.observability.trace` — the trace model: rebuild the
  cross-process span tree from a JSONL stream, attribute wall time
  per phase, compute the critical path (``python -m repro trace``);
* :mod:`~repro.observability.metrics` — the one metrics store: the
  :class:`MetricsRegistry` of counters / gauges / fixed-bucket latency
  histograms that the hub exports as JSONL summaries and the daemon
  snapshots for ``stats``/``health`` queries;
  zero-cost when disabled (:data:`NULL_METRICS`), stable JSON schema;
* :mod:`~repro.observability.flightrecorder` — the always-on bounded
  ring of recent telemetry events, dumped atomically to a JSONL file
  on faults / ``SIGUSR1`` / shutdown and replayable by ``repro trace``;
* :mod:`~repro.observability.overhead` — self-profiling, reporting
  tracker overhead as a ratio of untracked execution (the Table-1
  overhead-column analogue), and :func:`best_of_warm`, the one timer
  of warm VM runs;
* :mod:`~repro.observability.bloatreport` — the Markdown / JSON bloat
  report behind ``python -m repro report``.
"""

from .bloatreport import (BloatReport, bloat_report_data,
                          render_bloat_report)
from .flightrecorder import (DEFAULT_CAPACITY, FlightRecorder,
                             RecorderSink, arm_signal, current_recorder,
                             dump_current, install)
from .metrics import (LATENCY_BUCKETS, METRICS_SCHEMA, NULL_METRICS,
                      Histogram, MetricsRegistry, NullMetrics,
                      normalize_snapshot, stable_json)
from .overhead import (OverheadReport, best_of_warm, measure_overhead,
                       overhead_from_dict)
from .telemetry import (DEFAULT_SAMPLE_INTERVAL, NULL, SCHEMA_VERSION,
                        JsonlSink, MemorySink, NullTelemetry, PipeSink,
                        SpanHandle, Telemetry, TraceContext, child_hub,
                        current, emit_tracker_stats, new_trace_id,
                        opcode_class_counts, read_jsonl, set_current,
                        slot_collision_counts, use)
from .trace import (Span, Trace, format_trace_report, load_trace,
                    trace_from_events, trace_to_dict)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL", "JsonlSink", "MemorySink",
    "PipeSink", "current", "set_current", "use", "read_jsonl",
    "SCHEMA_VERSION", "DEFAULT_SAMPLE_INTERVAL",
    "TraceContext", "SpanHandle", "child_hub", "new_trace_id",
    "opcode_class_counts", "slot_collision_counts", "emit_tracker_stats",
    "Span", "Trace", "load_trace", "trace_from_events",
    "format_trace_report", "trace_to_dict",
    "MetricsRegistry", "NullMetrics", "NULL_METRICS", "Histogram",
    "LATENCY_BUCKETS", "METRICS_SCHEMA", "normalize_snapshot",
    "stable_json",
    "FlightRecorder", "RecorderSink", "DEFAULT_CAPACITY", "install",
    "current_recorder", "dump_current", "arm_signal",
    "OverheadReport", "best_of_warm", "measure_overhead",
    "overhead_from_dict",
    "BloatReport", "render_bloat_report", "bloat_report_data",
]
