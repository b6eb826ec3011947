"""Fleet-level observability: trace/metrics determinism, chaos
validation, zero-trial statistics, and fault counters."""

import pytest

from repro.engine.executor import multiprocessing_usable, run_fleet, run_shard
from repro.engine.merge import FleetReport, ShardResult, wilson_interval
from repro.engine.spec import CampaignSpec, parse_chaos
from repro.errors import ReproError
from repro.obs.export import trace_to_jsonl

needs_multiprocessing = pytest.mark.skipif(
    not multiprocessing_usable(),
    reason="multiprocessing unavailable in this environment")

OBSERVED = CampaignSpec(installs=8, seed=11, attack="fileobserver",
                        defenses=("fuse-dac",), observe=True)


# -- chaos spec validation (the --chaos crash:bogus bugfix) ------------------


def test_parse_chaos_accepts_valid_specs():
    assert parse_chaos(None) == ("", ())
    assert parse_chaos("crash:1") == ("crash", (1,))
    assert parse_chaos("error:0,2") == ("error", (0, 2))
    assert parse_chaos("hang:") == ("hang", ())


def test_parse_chaos_rejects_unknown_mode():
    with pytest.raises(ReproError, match="unknown mode"):
        parse_chaos("explode:1")


def test_parse_chaos_rejects_non_integer_index():
    with pytest.raises(ReproError, match="not a shard index"):
        parse_chaos("crash:1,x")


def test_campaign_spec_validates_chaos_up_front():
    # Regression: a malformed spec used to escape as a raw ValueError
    # from inside worker scheduling; it must fail spec construction.
    with pytest.raises(ReproError, match="invalid chaos spec"):
        CampaignSpec(installs=4, chaos="crash:bogus")


# -- zero-trial statistics ---------------------------------------------------


def test_wilson_interval_zero_trials_is_vacuous():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_empty_fleet_report_has_sane_aggregates():
    report = run_fleet(CampaignSpec(installs=0, observe=True),
                       shards=2, backend="serial")
    assert report.stats.runs == 0
    assert report.hijack_ci == (0.0, 1.0)
    assert report.alarm_ci == (0.0, 1.0)
    assert report.alarm_rate == 0.0
    assert report.stats.hijack_rate == 0.0
    text = report.render()
    assert "0 installs over 2 shard(s)" in text
    # Observability on a zero-install fleet: empty but well-formed.
    assert report.trace_records() == []
    assert report.metrics == {"counters": {}, "gauges": {},
                              "histograms": {}}


def test_report_from_no_shards_at_all():
    report = FleetReport.from_shards(
        CampaignSpec(installs=0), shards=[], wall_seconds=0.0,
        workers=1, backend="serial")
    assert report.throughput == 0.0
    assert report.shard_timing() == (0.0, 0.0, 0.0)
    assert report.metrics is None
    assert report.trace_records() == []


# -- trace/metrics plumbing --------------------------------------------------


def test_unobserved_shard_carries_no_trace_or_metrics():
    result = run_shard(CampaignSpec(installs=2, seed=3).shard(1)[0])
    assert result.trace is None
    assert result.metrics is None


def test_observed_shard_carries_trace_and_metrics():
    result = run_shard(OBSERVED.shard(2)[0])
    assert result.trace, "expected trace records"
    assert result.metrics["counters"]["ait/runs"] == 4
    assert all(record["type"] in ("span", "event")
               for record in result.trace)


def test_trace_records_are_shard_tagged_and_ordered():
    report = run_fleet(OBSERVED, shards=2, backend="serial")
    records = report.trace_records()
    assert records, "expected a merged trace"
    shards_seen = [record["shard"] for record in records]
    assert shards_seen == sorted(shards_seen)
    assert set(shards_seen) == {0, 1}


# -- the determinism contract, extended to observability ---------------------


def test_trace_and_metrics_identical_across_reruns():
    first = run_fleet(OBSERVED, shards=2, backend="serial")
    second = run_fleet(OBSERVED, shards=2, backend="serial")
    assert (trace_to_jsonl(first.trace_records())
            == trace_to_jsonl(second.trace_records()))
    assert first.metrics == second.metrics


def test_merged_fleet_histograms_carry_buckets_for_any_grouping():
    # The log-bucket counts thread through the shard merge: the fold
    # of per-shard snapshots equals the whole-fleet fold bit for bit,
    # regardless of how installs were sharded.
    from repro.obs.export import render_metrics
    from repro.obs.metrics import merge_snapshots, summary_percentile

    two = run_fleet(OBSERVED, shards=2, backend="serial")
    four = run_fleet(OBSERVED, shards=4, backend="serial")
    for report in (two, four):
        elapsed = report.metrics["histograms"]["ait/elapsed_ns"]
        assert elapsed["count"] == 8
        assert sum(elapsed["buckets"].values()) == 8
        assert summary_percentile(elapsed, 50) is not None
    # Same installs, different sharding: identical bucket totals.
    assert (two.metrics["histograms"]["ait/elapsed_ns"]
            == four.metrics["histograms"]["ait/elapsed_ns"])
    # Refolding the per-shard snapshots reproduces the report's merge.
    refolded = merge_snapshots([s.metrics for s in four.shards])
    assert refolded == four.metrics
    assert "p50=" in render_metrics(four.metrics)


@needs_multiprocessing
def test_trace_and_metrics_identical_across_layouts():
    serial = run_fleet(OBSERVED, shards=2, backend="serial")
    two_workers = run_fleet(OBSERVED, shards=2, workers=2,
                            backend="process")
    assert two_workers.backend == "process"
    assert (trace_to_jsonl(serial.trace_records())
            == trace_to_jsonl(two_workers.trace_records()))
    assert serial.metrics == two_workers.metrics
    assert serial.stats == two_workers.stats


# -- executor fault counters folded into the report --------------------------


def test_clean_run_has_zero_fault_counters():
    report = run_fleet(CampaignSpec(installs=4, seed=3), shards=2,
                       backend="serial")
    assert not any(report.counters.values())
    assert "faults" not in report.render()


@needs_multiprocessing
def test_injected_error_shows_up_in_counters_and_render():
    spec = CampaignSpec(installs=4, seed=5, chaos="error:1")
    report = run_fleet(spec, shards=2, workers=2, max_retries=0)
    assert report.counters["errors"] == 1
    assert report.counters["fallbacks"] == 1
    assert report.counters["retries"] == 0  # retries exhausted at 0
    assert "faults" in report.render()
    assert "1 error(s)" in report.render()
    assert "0 retried" in report.render_engine()


@needs_multiprocessing
def test_every_surface_shows_the_one_retry_count():
    spec = CampaignSpec(installs=4, seed=5, chaos="error:1")
    report = run_fleet(spec, shards=2, workers=2, max_retries=1)
    # one pool re-queue; the second failure is a serial rescue
    assert report.counters["retries"] == 1
    assert report.counters["fallbacks"] == 1
    assert report.telemetry["retries"] == 1
    assert "1 retried;" in report.render_engine()
    rendered = report.render()
    assert "(1 retried)" in rendered
    assert "1 retried, 1 serial fallback(s)" in rendered
