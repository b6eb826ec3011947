"""Tests for the metrics registry and snapshot merge semantics."""

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    empty_snapshot,
    fold_metrics,
    merge_snapshots,
    snapshot_names,
)


def test_counter_accumulates():
    registry = MetricsRegistry()
    registry.counter("runs").inc()
    registry.counter("runs").inc(4)
    assert registry.snapshot()["counters"]["runs"] == 5


def test_counter_rejects_negative_amounts():
    # The docstring always said ">= 0"; now it is enforced.
    registry = MetricsRegistry()
    registry.counter("runs").inc(2)
    with pytest.raises(ReproError, match="negative"):
        registry.counter("runs").inc(-1)
    assert registry.counter("runs").value == 2
    registry.counter("runs").inc(0)  # zero stays legal (delta counters)
    assert registry.counter("runs").value == 2


def test_gauge_keeps_high_water_mark():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(3)
    gauge.set(1)
    gauge.set(7)
    gauge.set(2)
    assert registry.snapshot()["gauges"]["depth"] == 7


def test_histogram_summary():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for value in (10, 30, 20):
        histogram.observe(value)
    assert histogram.mean == 20.0
    # Classic keys preserved; log-bucket counts ride alongside them.
    assert registry.snapshot()["histograms"]["latency"] == {
        "count": 3, "sum": 60, "min": 10, "max": 30,
        "buckets": {"4": 1, "5": 2}}


def test_empty_histogram_summary():
    registry = MetricsRegistry()
    registry.histogram("untouched")
    summary = registry.snapshot()["histograms"]["untouched"]
    assert summary == {"count": 0, "sum": 0, "min": None, "max": None,
                       "buckets": {}}
    assert registry.histogram("untouched").mean == 0.0


def test_bucket_index_and_bounds():
    assert bucket_index(0) == 0
    assert bucket_index(-5) == 0
    assert bucket_index(1) == 1
    assert bucket_index(2) == 2
    assert bucket_index(3) == 2
    assert bucket_index(4) == 3
    assert bucket_bounds(0) == (0, 0)
    assert bucket_bounds(3) == (4, 7)
    # Every positive value lies inside its own bucket's bounds.
    for value in (1, 2, 3, 7, 8, 1023, 1024, 10**12):
        low, high = bucket_bounds(bucket_index(value))
        assert low <= value <= high


def test_histogram_percentiles_are_clamped_estimates():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat")
    for value in (10, 20, 30, 40, 100):
        histogram.observe(value)
    # p50 rank 3 -> value 30 lives in bucket 5 ([16, 31]); the upper
    # bound 31 is the deterministic estimate.
    assert histogram.percentile(50) == 31
    # p99 rank 5 -> bucket 7 upper bound 127, clamped to max=100.
    assert histogram.percentile(99) == 100
    # p0-ish clamps to min.
    assert histogram.percentile(0) >= 10
    assert registry.histogram("empty").percentile(50) is None


def test_metrics_created_on_first_use_and_reused():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_snapshot_names_are_sorted():
    registry = MetricsRegistry()
    registry.counter("z")
    registry.counter("a")
    registry.gauge("m")
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "z"]
    assert snapshot_names(snapshot) == ["counters:a", "counters:z", "gauges:m"]


def test_merge_adds_counters_maxes_gauges_folds_histograms():
    left = MetricsRegistry()
    left.counter("runs").inc(3)
    left.gauge("depth").set(5)
    left.histogram("lat").observe(10)
    right = MetricsRegistry()
    right.counter("runs").inc(2)
    right.gauge("depth").set(9)
    right.histogram("lat").observe(40)
    merged = merge_snapshots([left.snapshot(), right.snapshot()])
    assert merged["counters"]["runs"] == 5
    assert merged["gauges"]["depth"] == 9
    assert merged["histograms"]["lat"] == {
        "count": 2, "sum": 50, "min": 10, "max": 40,
        "buckets": {"4": 1, "6": 1}}


def test_merge_identity_and_associativity():
    a = MetricsRegistry()
    a.counter("x").inc(1)
    a.histogram("h").observe(5)
    b = MetricsRegistry()
    b.counter("x").inc(2)
    b.histogram("h").observe(1)
    c = MetricsRegistry()
    c.gauge("g").set(4)
    snaps = [a.snapshot(), b.snapshot(), c.snapshot()]
    with_identity = merge_snapshots([empty_snapshot()] + snaps)
    left_assoc = merge_snapshots(
        [merge_snapshots(snaps[:2]), snaps[2]])
    right_assoc = merge_snapshots(
        [snaps[0], merge_snapshots(snaps[1:])])
    assert with_identity == left_assoc == right_assoc


def test_merge_handles_empty_histogram_extremes():
    empty = MetricsRegistry()
    empty.histogram("h")  # count 0, min/max None
    full = MetricsRegistry()
    full.histogram("h").observe(7)
    merged = merge_snapshots([empty.snapshot(), full.snapshot()])
    assert merged["histograms"]["h"] == {
        "count": 1, "sum": 7, "min": 7, "max": 7, "buckets": {"3": 1}}


def test_merge_pins_none_extremes_from_empty_shard_fold():
    # An empty shard's summary has min/max None in *both* argument
    # positions; the fold must keep the other side's extremes, and two
    # empties stay None (never 0, which would poison a later min()).
    empty = {"counters": {}, "gauges": {},
             "histograms": {"h": {"count": 0, "sum": 0, "min": None,
                                  "max": None, "buckets": {}}}}
    full = {"counters": {}, "gauges": {},
            "histograms": {"h": {"count": 2, "sum": 30, "min": 10,
                                 "max": 20, "buckets": {"4": 1, "5": 1}}}}
    for ordering in ([empty, full], [full, empty]):
        merged = merge_snapshots(ordering)
        assert merged["histograms"]["h"] == {
            "count": 2, "sum": 30, "min": 10, "max": 20,
            "buckets": {"4": 1, "5": 1}}
    both_empty = merge_snapshots([empty, empty])
    assert both_empty["histograms"]["h"]["min"] is None
    assert both_empty["histograms"]["h"]["max"] is None


def test_merged_buckets_identical_for_any_shard_grouping():
    shards = []
    for seed in range(6):
        registry = MetricsRegistry()
        for value in range(seed, 40 + seed * 7, 3):
            registry.histogram("lat").observe(value)
        shards.append(registry.snapshot())
    whole = merge_snapshots(shards)
    pairs = merge_snapshots(
        [merge_snapshots(shards[:2]), merge_snapshots(shards[2:4]),
         merge_snapshots(shards[4:])])
    lopsided = merge_snapshots([shards[0], merge_snapshots(shards[1:])])
    assert whole == pairs == lopsided


def test_merge_of_nothing_is_empty_snapshot():
    assert merge_snapshots([]) == empty_snapshot()


def test_merge_does_not_mutate_inputs():
    import copy

    source = MetricsRegistry()
    source.histogram("h").observe(3)
    snap = source.snapshot()
    before = copy.deepcopy(snap)
    merge_snapshots([snap, snap])
    assert snap == before


def test_bound_instruments_share_state_with_named_lookups():
    registry = MetricsRegistry()
    inc = registry.bind_counter("runs")
    observe = registry.bind_histogram("latency")
    raise_peak = registry.bind_gauge("peak")
    inc()
    inc(3)
    observe(5)
    raise_peak(7)
    raise_peak(2)  # gauges keep the high-water mark
    assert registry.counter("runs").value == 4
    assert registry.histogram("latency").count == 1
    assert registry.gauge("peak").value == 7
    snapshot = registry.snapshot()
    assert snapshot["counters"]["runs"] == 4
    assert snapshot["gauges"]["peak"] == 7


def test_binding_creates_the_instrument_in_snapshots():
    # Bind-time creation is the visibility contract: callers must only
    # bind unconditionally-recorded metrics, because the name appears
    # in snapshots from the moment of binding.
    registry = MetricsRegistry()
    registry.bind_counter("created")
    assert registry.snapshot()["counters"] == {"created": 0}


def test_histogram_observe_inline_bucketing_matches_bucket_index():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    values = (-3, 0, 1, 2, 3, 1023, 1024)
    for value in values:
        histogram.observe(value)
    assert histogram.buckets == {
        bucket_index(value): count
        for value, count in {-3: 2, 1: 1, 2: 2, 1023: 1, 1024: 1}.items()
    }


def test_fold_derives_counters_from_stats_and_trace_records():
    from repro.core.campaign import CampaignStats

    registry = MetricsRegistry()
    registry.counter("serve/shards_completed")  # a read creates it at 0
    records = [
        {"type": "event", "name": "install/outcome", "t_ns": 1,
         "attrs": {"installed": False, "hijacked": False, "error": "boom"}},
        {"type": "span", "name": "attack/window", "start_ns": 2,
         "end_ns": 7, "attrs": {"blocked": False}},
    ]
    snapshot = fold_metrics(registry, records, CampaignStats(runs=1))
    # Alarms and blocks show at 0 beside a run count; the rest only
    # when nonzero, unless the registry already holds the name.
    assert snapshot["counters"] == {
        "ait/errors": 1, "ait/runs": 1, "campaign/alarms": 0,
        "campaign/blocked": 0, "campaign/runs": 1,
        "serve/shards_completed": 0}
    assert snapshot["histograms"]["attack/window_ns"]["sum"] == 5
    assert fold_metrics(stats={"shards": 3})["counters"] == {
        "serve/shards_completed": 3}
