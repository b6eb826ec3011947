"""Observability: tracing, metrics, and trace forensics for the stack.

Five pieces, threaded through the simulator, the core scenario layer,
the defenses and the fleet engine:

- :mod:`repro.obs.trace` — span/event recording keyed on *simulated*
  time, with a zero-overhead :data:`NULL_RECORDER` default,
- :mod:`repro.obs.metrics` — counter/gauge/histogram registry with
  deterministic, mergeable snapshots; histograms are log-bucketed so
  p50/p90/p99 estimates survive the shard merge.  One ledger per fact:
  :func:`~repro.obs.metrics.fold_metrics` derives every metric another
  ledger holds from the stats and the trace (table ``FOLDED``); the
  registry keeps only the rest,
- :mod:`repro.obs.export` — canonical JSONL trace export, streaming
  re-load, and text summaries (the ``--trace``/``--metrics`` flags),
- :mod:`repro.obs.analyze` — trace forensics over the exported
  records: latency profiles, span trees and critical paths, the
  armed→strike race-window distribution split by hijack outcome, and
  structural trace diffing (the ``repro trace`` CLI family),
- :mod:`repro.obs.runtime` — the wall-clock plane: per-shard
  rusage/RSS telemetry with associative rollups, the daemon flight
  recorder, Prometheus text exposition, and merged shard profiling.

The determinism contract of :mod:`repro.engine` extends here: for a
fixed seed, a shard's exported trace is byte-identical across runs,
worker counts and backends; per-shard metric snapshots merged in shard
order are bit-identical; and every analysis renderer is a pure
function of the records, so its report is byte-identical too.
"""

from repro.obs.analyze import (
    PathStep,
    RecordDelta,
    SpanNode,
    TraceDiff,
    TraceProfile,
    WindowReport,
    WindowStats,
    build_span_trees,
    critical_path,
    diff_traces,
    layer_of,
    profile_trace,
    render_critical_path,
    render_diff,
    render_profile,
    render_windows,
    validate_records,
    window_forensics,
)
from repro.obs.export import (
    iter_trace_jsonl,
    load_trace_jsonl,
    render_metrics,
    render_trace_summary,
    trace_to_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    empty_snapshot,
    fold_metrics,
    merge_snapshots,
    snapshot_names,
    summary_percentile,
    summary_percentiles,
)
from repro.obs.runtime import (
    FlightRecorder,
    ShardTelemetry,
    TelemetryRollup,
    host_metadata,
    merged_hotspots,
    profile_blob,
    prometheus_name,
    render_prometheus,
    rusage_now,
    validate_exposition,
    write_hotspots,
)
from repro.obs.trace import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "NULL_RECORDER",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "PathStep",
    "RecordDelta",
    "ShardTelemetry",
    "SpanNode",
    "TelemetryRollup",
    "TraceDiff",
    "TraceProfile",
    "TraceRecorder",
    "WindowReport",
    "WindowStats",
    "bucket_bounds",
    "bucket_index",
    "build_span_trees",
    "critical_path",
    "diff_traces",
    "empty_snapshot",
    "fold_metrics",
    "host_metadata",
    "iter_trace_jsonl",
    "layer_of",
    "load_trace_jsonl",
    "merge_snapshots",
    "merged_hotspots",
    "profile_blob",
    "profile_trace",
    "prometheus_name",
    "render_critical_path",
    "render_diff",
    "render_metrics",
    "render_profile",
    "render_prometheus",
    "render_trace_summary",
    "render_windows",
    "rusage_now",
    "snapshot_names",
    "summary_percentile",
    "summary_percentiles",
    "trace_to_jsonl",
    "validate_exposition",
    "validate_records",
    "window_forensics",
    "write_hotspots",
    "write_trace_jsonl",
]
