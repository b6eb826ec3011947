"""Tests for JSONL trace export and the text renderers."""

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    iter_trace_jsonl,
    load_trace_jsonl,
    render_metrics,
    render_trace_summary,
    trace_to_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry, empty_snapshot
from repro.obs.trace import TraceRecorder


def sample_records():
    recorder = TraceRecorder()
    recorder.event("attack/strike", 500, path="/sdcard/a.apk")
    recorder.span("ait/download", 0, 400, package="com.a.b")
    recorder.event("attack/strike", 900)
    return recorder.records()


def test_jsonl_is_canonical_and_byte_stable():
    records = sample_records()
    payload = trace_to_jsonl(records)
    assert payload == trace_to_jsonl(records)
    first_line = payload.splitlines()[0]
    # keys sorted, compact separators
    assert first_line == ('{"attrs":{"path":"/sdcard/a.apk"},'
                          '"name":"attack/strike","t_ns":500,"type":"event"}')
    assert payload.endswith("\n")


def test_jsonl_of_no_records_is_empty_string():
    assert trace_to_jsonl([]) == ""


def test_write_and_load_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    records = sample_records()
    assert write_trace_jsonl(path, records) == 3
    assert load_trace_jsonl(path) == records


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ReproError, match="invalid JSON"):
        load_trace_jsonl(str(path))


def test_load_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"mystery","name":"x"}\n')
    with pytest.raises(ReproError, match="unknown record type"):
        load_trace_jsonl(str(path))


def test_load_rejects_missing_required_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"span","name":"x","start_ns":0}\n')
    with pytest.raises(ReproError, match="missing"):
        load_trace_jsonl(str(path))


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('\n{"name":"e","t_ns":1,"type":"event"}\n\n')
    assert len(load_trace_jsonl(str(path))) == 1


def test_iter_streams_lazily_and_matches_load(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_trace_jsonl(path, sample_records())
    stream = iter_trace_jsonl(path)
    assert iter(stream) is stream  # a generator, not a list
    assert next(stream)["name"] == "attack/strike"
    assert list(stream) == load_trace_jsonl(path)[1:]


def test_iter_validates_lazily_up_to_the_bad_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name":"ok","t_ns":1,"type":"event"}\n'
                    '{"type":"mystery","name":"x"}\n')
    stream = iter_trace_jsonl(str(path))
    assert next(stream)["name"] == "ok"
    with pytest.raises(ReproError, match="unknown record type"):
        next(stream)


def test_iter_rejects_non_dict_attrs(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name":"e","t_ns":1,"type":"event","attrs":[1]}\n')
    with pytest.raises(ReproError, match="attrs must be an object"):
        load_trace_jsonl(str(path))


def test_iter_rejects_missing_file():
    with pytest.raises(ReproError, match="cannot read trace"):
        next(iter_trace_jsonl("/nonexistent/trace.jsonl"))


def test_render_trace_summary():
    text = render_trace_summary(sample_records())
    assert "trace: 3 record(s)" in text
    assert "span  ait/download" in text
    assert "x2" in text  # two attack/strike events


def test_render_metrics():
    registry = MetricsRegistry()
    registry.counter("ait/runs").inc(4)
    registry.gauge("kernel/queue_depth_peak").set(3)
    registry.histogram("ait/elapsed_ns").observe(100)
    text = render_metrics(registry.snapshot())
    assert text.startswith("metrics: 3 metric(s)")
    assert "counter   ait/runs" in text
    assert "gauge     kernel/queue_depth_peak" in text
    assert "count=1 mean=100.0 min=100 max=100" in text


def test_render_metrics_handles_none_and_empty():
    assert render_metrics(None) == "metrics: 0 metric(s)"
    assert render_metrics(empty_snapshot(),
                          title="fleet metrics") == "fleet metrics: 0 metric(s)"


def test_render_metrics_appends_percentiles_for_bucketed_histograms():
    registry = MetricsRegistry()
    for value in (10, 20, 30, 40, 100):
        registry.histogram("ait/elapsed_ns").observe(value)
    text = render_metrics(registry.snapshot())
    assert "p50=31" in text
    assert "p95=100" in text and "p99=100" in text


def test_renderers_widen_columns_for_long_names():
    # Regression: names longer than 28 chars used to shear the value
    # columns out of alignment.
    long_name = "defense/very_long_subsystem_metric_name_indeed"
    registry = MetricsRegistry()
    registry.counter(long_name).inc()
    registry.counter("short").inc()
    lines = render_metrics(registry.snapshot()).splitlines()[1:]
    assert len({line.rfind(" ") for line in lines}) == 1  # values aligned
    recorder = TraceRecorder()
    recorder.span(long_name, 0, 10)
    recorder.span("short", 0, 10)
    summary_lines = render_trace_summary(recorder.records()).splitlines()[1:]
    positions = {line.index(" x") for line in summary_lines}
    assert len(positions) == 1  # count column starts at one offset
