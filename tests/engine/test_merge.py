"""Tests for stat merging: associativity, identity, fleet aggregates."""

from hypothesis import given, settings, strategies as st

from repro.core.campaign import CampaignStats
from repro.core.outcomes import InstallOutcome
from repro.engine.merge import (
    FleetReport,
    ShardResult,
    merge_stats,
    wilson_interval,
)
from repro.engine.spec import CampaignSpec
from repro.obs.runtime import ShardTelemetry


def _stats_from_flags(flags) -> CampaignStats:
    """Build stats from a list of (hijacked, error) pairs."""
    stats = CampaignStats()
    for index, (hijacked, error) in enumerate(flags):
        stats.record(InstallOutcome(
            requested_package=f"com.app{index}",
            installed=not error,
            hijacked=hijacked,
            error="boom" if error else None,
        ), [])
    return stats


def _telemetry(index: int, wall_seconds: float) -> dict:
    return ShardTelemetry(shard_index=index, wall_ns=int(wall_seconds * 1e9),
                          cpu_user_s=wall_seconds, cpu_system_s=0.0,
                          max_rss_kb=1024).to_dict()


flags_lists = st.lists(
    st.tuples(st.booleans(), st.booleans()), max_size=8)


@given(flags_lists)
@settings(max_examples=50, deadline=None)
def test_merge_identity_on_empty_stats(flags):
    stats = _stats_from_flags(flags)
    assert CampaignStats().merge(stats) == stats
    assert stats.merge(CampaignStats()) == stats


@given(flags_lists, flags_lists, flags_lists)
@settings(max_examples=50, deadline=None)
def test_merge_is_associative(a_flags, b_flags, c_flags):
    a, b, c = (_stats_from_flags(f) for f in (a_flags, b_flags, c_flags))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.runs == a.runs + b.runs + c.runs


def test_merge_sums_every_counter():
    a = CampaignStats(runs=2, installs_completed=2, hijacks=1,
                      clean_installs=1, alarms=3, blocked=1,
                      alarmed_runs=2, blocked_runs=1)
    b = CampaignStats(runs=1, installs_completed=0, errors=1)
    merged = a.merge(b)
    assert merged.runs == 3
    assert merged.hijacks == 1
    assert merged.errors == 1
    assert merged.alarms == 3
    assert merged.blocked == 1
    assert merged.alarmed_runs == 2
    assert merged.blocked_runs == 1
    assert merged.counter_tuple() == tuple(
        x + y for x, y in zip(a.counter_tuple(), b.counter_tuple()))
    # Inputs are untouched (merge returns a new snapshot).
    assert a.runs == 2 and b.runs == 1


def test_merge_stats_folds_a_sequence():
    parts = [_stats_from_flags([(False, False)]) for _ in range(4)]
    merged = merge_stats(parts)
    assert merged.runs == 4
    assert merge_stats([]) == CampaignStats()


def test_wilson_interval_bounds_and_known_value():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    zlo, zhi = wilson_interval(0, 924)
    assert zlo == 0.0
    assert zhi < 0.005  # the paper's 0-alarm claim stays tight
    for successes, trials in ((0, 10), (10, 10), (3, 7)):
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_fleet_report_aggregates():
    spec = CampaignSpec(installs=4)
    shards = [
        ShardResult(shard_index=1, start=2, stop=4,
                    stats=_stats_from_flags([(True, False), (False, False)]),
                    wall_seconds=2.0, telemetry=_telemetry(1, 2.0)),
        ShardResult(shard_index=0, start=0, stop=2,
                    stats=_stats_from_flags([(False, False), (False, False)]),
                    wall_seconds=1.0, telemetry=_telemetry(0, 1.0)),
    ]
    report = FleetReport.from_shards(spec, shards, wall_seconds=2.0,
                                     workers=2, backend="process")
    # Shards are reordered by index before merging.
    assert [s.shard_index for s in report.shards] == [0, 1]
    assert report.stats.runs == 4
    assert report.stats.hijacks == 1
    assert report.stats.hijack_rate == 0.25
    lo, hi = report.hijack_ci
    assert lo < 0.25 < hi
    assert report.throughput == 2.0
    assert report.shard_timing() == (1.0, 1.5, 2.0)
    text = report.render()
    assert "4 installs" in text
    assert "95% CI" in text
    assert "shard wall 3.00s over 2 shard(s)" in text
