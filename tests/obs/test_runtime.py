"""The wall-clock plane: telemetry rollups, flight ring, exposition.

Everything here is about :mod:`repro.obs.runtime` in isolation — the
engine interaction (one clock per shard, one fold per report) lives in
``tests/engine/test_telemetry.py``.
"""

import cProfile
import json

import pytest

from repro.durable import RecordLog, frame
from repro.errors import ReproError
from repro.obs import runtime as runtime_mod
from repro.obs.runtime import (
    FLIGHT_CAPACITY,
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


def shard(index, wall_ns=1000, user=0.5, system=0.1, rss=2048):
    return ShardTelemetry(shard_index=index, wall_ns=wall_ns,
                          cpu_user_s=user, cpu_system_s=system,
                          max_rss_kb=rss)


# -- probe / telemetry ------------------------------------------------------

def test_probe_measures_a_real_delta():
    start = rusage_now()
    sum(range(50000))  # burn a little CPU
    sample = ShardTelemetry.since(3, 1, start)
    assert sample.shard_index == 3
    assert sample.wall_ns == 1
    assert sample.cpu_user_s >= 0.0
    assert sample.max_rss_kb > 0


def test_shard_telemetry_round_trips_through_dict():
    sample = shard(2, wall_ns=123456789, user=1.25, system=0.25, rss=4096)
    assert ShardTelemetry.from_dict(sample.to_dict()) == sample


# -- rollup fold ------------------------------------------------------------

def test_rollup_sums_and_takes_rss_max():
    rollup = TelemetryRollup()
    rollup.add(shard(0, wall_ns=10, user=1.0, system=0.5, rss=100))
    rollup.add(shard(1, wall_ns=20, user=2.0, system=0.5, rss=300))
    assert rollup.shards == 2
    assert rollup.wall_ns == 30
    assert rollup.cpu_user_s == pytest.approx(3.0)
    assert rollup.cpu_s == pytest.approx(4.0)
    assert rollup.max_rss_kb == 300


def test_rollup_merge_is_associative_and_order_free():
    samples = [shard(i, wall_ns=i * 10 + 1, user=float(i), rss=i * 100)
               for i in range(6)]

    def fold(groups):
        total = TelemetryRollup()
        for group in groups:
            partial = TelemetryRollup()
            for sample in group:
                partial.add(sample)
            total.merge(partial)
        return total.to_dict()

    flat = fold([samples])
    assert fold([samples[:2], samples[2:]]) == flat
    assert fold([samples[4:], samples[:4]]) == flat
    assert fold([[s] for s in reversed(samples)]) == flat


def test_rollup_round_trips_and_renders():
    rollup = TelemetryRollup(shards=4, wall_ns=2_500_000_000,
                             cpu_user_s=1.5, cpu_system_s=0.5,
                             max_rss_kb=20480, retries=1,
                             queue_wait_s=0.25)
    assert TelemetryRollup.from_dict(rollup.to_dict()) == rollup
    text = rollup.render()
    assert "cpu 1.50s user" in text
    assert "20.0 MB" in text
    assert "4 shard(s)" in text


def test_host_metadata_names_the_interpreter():
    meta = host_metadata()
    assert meta["cpus"] >= 1
    assert meta["python"].count(".") == 2


# -- flight recorder --------------------------------------------------------

def test_flight_ring_keeps_the_tail_and_counts_overflow():
    flight = FlightRecorder(capacity=4)
    for index in range(10):
        flight.record("tick", index=index)
    assert flight.recorded == 10
    assert flight.dropped == 6
    kept = [event["index"] for event in flight.events()]
    assert kept == [6, 7, 8, 9]
    snapshot = flight.snapshot()
    assert snapshot["capacity"] == 4
    assert len(snapshot["events"]) == 4


def test_flight_events_filter_by_kind_and_stamp_sequence():
    flight = FlightRecorder(capacity=8)
    flight.record("submit", job="job-1")
    flight.record("start", job="job-1")
    flight.record("submit", job="job-2")
    submits = flight.events("submit")
    assert [event["job"] for event in submits] == ["job-1", "job-2"]
    seqs = [event["seq"] for event in flight.events()]
    assert seqs == sorted(seqs) and len(set(seqs)) == 3


def test_flight_file_survives_a_reload(tmp_path):
    path = tmp_path / "flight.log"
    first = FlightRecorder(capacity=8, path=path)
    first.record("submit", job="job-1")
    first.record("finish", job="job-1")
    # a new recorder on the same file = the restarted daemon
    second = FlightRecorder(capacity=8, path=path)
    kinds = [event["kind"] for event in second.events()]
    assert kinds == ["submit", "finish"]
    second.record("recover", requeued=0)
    third = FlightRecorder(capacity=8, path=path)
    assert [e["kind"] for e in third.events()] == ["submit", "finish",
                                                  "recover"]
    assert third._seq == 3  # sequence continues across restarts


def _tear(path):
    """Append half a frame: a recorder SIGKILLed mid-append."""
    torn = frame(b'{"kind":"torn-by-sigkill","seq":99}')
    with open(path, "ab") as handle:
        handle.write(torn[:len(torn) // 2])


def test_flight_reload_drops_a_torn_last_line(tmp_path):
    path = tmp_path / "flight.log"
    flight = FlightRecorder(capacity=8, path=path)
    flight.record("submit", job="job-1")
    _tear(path)
    reloaded = FlightRecorder(capacity=8, path=path)
    assert [e["kind"] for e in reloaded.events()] == ["submit"]


def test_flight_recover_after_a_torn_line_survives_the_next_reload(tmp_path):
    path = tmp_path / "flight.log"
    flight = FlightRecorder(capacity=8, path=path)
    flight.record("submit", job="job-1")
    _tear(path)
    FlightRecorder(capacity=8, path=path).record("recover", requeued=1)
    third = FlightRecorder(capacity=8, path=path)
    assert [(e["seq"], e["kind"]) for e in third.events()] == [
        (1, "submit"), (2, "recover")]


def test_flight_file_compacts_instead_of_growing_forever(tmp_path):
    path = tmp_path / "flight.log"
    flight = FlightRecorder(capacity=4, path=path)
    for index in range(100):
        flight.record("tick", index=index)
    # The sidecar compacts once it outgrows capacity * factor, so 100
    # events never leave more than one factor's worth of records
    # behind, and a restart still sees exactly the ring tail.
    assert len(RecordLog(path, durable=False).records()) <= 4 * 8
    reloaded = FlightRecorder(capacity=4, path=path)
    assert [e["index"] for e in reloaded.events()] == [96, 97, 98, 99]
    assert FLIGHT_CAPACITY >= 4  # default capacity is far larger


def test_flight_reload_survives_a_disk_that_refuses_compaction(
        tmp_path, monkeypatch):
    path = tmp_path / "flight.log"
    log = RecordLog(path, durable=False)
    log.append(*(json.dumps({"seq": seq, "kind": "tick"}).encode()
                 for seq in range(1, 41)))  # 40 > capacity * 8

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runtime_mod, "atomic_write", full_disk)
    flight = FlightRecorder(capacity=4, path=path)
    assert [e["seq"] for e in flight.events()] == [37, 38, 39, 40]
    assert flight.recorded == 40 and flight.dropped == 36
    flight.record("recover")  # the rewrite fails again; record still works
    assert flight.events()[-1]["seq"] == 41


# -- Prometheus exposition --------------------------------------------------

def test_prometheus_name_sanitizes_metric_paths():
    assert prometheus_name("serve/jobs_completed") == \
        "repro_serve_jobs_completed"
    assert prometheus_name("kernel/queue-depth.peak") == \
        "repro_kernel_queue_depth_peak"


def test_render_prometheus_covers_all_metric_kinds():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("serve/jobs_completed").inc(3)
    registry.gauge("serve/queue_depth_peak").set(2)
    registry.histogram("serve/shard_wall_ms").observe(15)
    registry.histogram("serve/shard_wall_ms").observe(200)
    rollup = TelemetryRollup(shards=2, wall_ns=10**9, cpu_user_s=1.0,
                             cpu_system_s=0.1, max_rss_kb=1024)
    text = render_prometheus(
        registry.snapshot(), rollup=rollup.to_dict(),
        job_rollups={"job-000001": rollup.to_dict()},
        gauges={"serve/uptime_seconds": 12.5})
    samples = validate_exposition(text)
    assert samples >= 10
    assert "repro_serve_jobs_completed_total 3" in text
    assert "repro_serve_shard_wall_ms_bucket" in text
    assert 'le="+Inf"' in text
    assert 'repro_telemetry_cpu_seconds_total{mode="user",' \
        'scope="service"} 1' in text
    assert 'job="job-000001"' in text
    assert "repro_serve_uptime_seconds 12.5" in text


def test_validate_exposition_rejects_undeclared_samples():
    with pytest.raises(ReproError, match="no TYPE declaration"):
        validate_exposition("repro_thing_total 3\n")


def test_validate_exposition_rejects_bad_values():
    bad = "# TYPE repro_x counter\nrepro_x not-a-number\n"
    with pytest.raises(ReproError, match="value"):
        validate_exposition(bad)


def test_validate_exposition_rejects_interleaved_families():
    interleaved = ("# TYPE repro_a counter\n"
                   "repro_a 1\n"
                   "# TYPE repro_b counter\n"
                   "repro_b 1\n"
                   "repro_a{scope=\"job\"} 2\n")
    with pytest.raises(ReproError, match="contiguous"):
        validate_exposition(interleaved)


# -- profiling --------------------------------------------------------------

def _blob_of(workload):
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    return profile_blob(profiler)


def test_merged_hotspots_is_deterministic_and_merges_counts():
    blobs = [_blob_of(lambda: json.dumps(list(range(2000))))
             for _ in range(3)]
    table_one = merged_hotspots(blobs, top=10)
    table_two = merged_hotspots(list(blobs), top=10)
    assert table_one == table_two
    assert "3 shard profile(s)" in table_one
    assert "cumtime" in table_one


def test_write_hotspots_creates_parent_dirs(tmp_path):
    out = tmp_path / "nested" / "HOTSPOTS_test.txt"
    path = write_hotspots(out, [_blob_of(lambda: sorted(range(100)))])
    assert path.exists()
    assert "1 shard profile(s)" in path.read_text(encoding="utf-8")
