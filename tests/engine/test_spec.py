"""Tests for campaign/shard specs: validation, sharding, derivation."""

import pickle

import pytest

from repro.engine.spec import (
    ATTACKS,
    DEVICES,
    MIN_POLL_INTERVAL_NS,
    CampaignSpec,
    ShardSpec,
    parse_chaos,
)
from repro.errors import ReproError


def test_shard_partition_covers_workload_contiguously():
    spec = CampaignSpec(installs=10)
    shards = spec.shard(3)
    assert [(s.start, s.stop) for s in shards] == [(0, 4), (4, 7), (7, 10)]
    assert sum(s.stop - s.start for s in shards) == 10
    assert [s.index for s in shards] == [0, 1, 2]
    assert all(s.count == 3 for s in shards)


def test_shard_balance_within_one_install():
    shards = CampaignSpec(installs=100).shard(8)
    sizes = [s.stop - s.start for s in shards]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 100


def test_more_shards_than_installs_yields_empty_shards():
    shards = CampaignSpec(installs=2).shard(4)
    assert [s.stop - s.start for s in shards] == [1, 1, 0, 0]


def test_child_seeds_differ_per_shard_and_are_stable():
    spec = CampaignSpec(installs=8, seed=42)
    seeds = [spec.child_seed(i) for i in range(4)]
    assert len(set(seeds)) == 4
    assert seeds == [CampaignSpec(installs=99, seed=42).child_seed(i)
                     for i in range(4)]


def test_sizes_derive_from_global_index_not_shard_layout():
    spec = CampaignSpec(installs=20, seed=9)
    sizes_direct = [spec.install_at(i)[2] for i in range(20)]
    by_shards = []
    for shard in spec.shard(7):
        by_shards.extend(spec.install_at(i)[2]
                         for i in range(shard.start, shard.stop))
    assert by_shards == sizes_direct
    assert all(spec.base_size_bytes <= s <= 2 * spec.base_size_bytes
               for s in sizes_direct)


def test_specs_are_picklable():
    spec = CampaignSpec(installs=5, attack="fileobserver",
                        defenses=("dapp",), device="xiaomi-mi4")
    shard = spec.shard(2)[1]
    clone = pickle.loads(pickle.dumps(shard))
    assert clone == shard
    assert clone.campaign == spec


def test_validation_rejects_unknown_names():
    with pytest.raises(ReproError):
        CampaignSpec(installs=1, installer="notastore")
    with pytest.raises(ReproError):
        CampaignSpec(installs=1, attack="notanattack")
    with pytest.raises(ReproError):
        CampaignSpec(installs=1, device="notadevice")
    with pytest.raises(ReproError):
        CampaignSpec(installs=1, defenses=("notadefense",))
    with pytest.raises(ReproError):
        CampaignSpec(installs=-1)


def test_shard_count_must_be_positive():
    with pytest.raises(ReproError):
        CampaignSpec(installs=4).shard(0)


def test_one_shot_attacker_refuses_to_shard():
    spec = CampaignSpec(installs=4, attack="fileobserver",
                        rearm_between=False)
    with pytest.raises(ReproError):
        spec.shard(2)
    # Unsharded and benign one-shot campaigns are fine.
    assert len(spec.shard(1)) == 1
    assert len(CampaignSpec(installs=4, rearm_between=False).shard(2)) == 2


def test_shard_builds_runnable_scenario():
    spec = CampaignSpec(installs=3, installer="dtignite",
                        attack="wait-and-see", defenses=("fuse-dac",))
    shard = spec.shard(1)[0]
    scenario = shard.build_scenario()
    assert scenario.attacker is not None
    assert scenario.fuse_dac is not None
    packages = shard.publish_workload(scenario)
    assert len(packages) == 3
    assert all(pkg in scenario.listings for pkg in packages)


def test_registries_expose_expected_entries():
    assert ATTACKS["none"] is None
    assert {"fileobserver", "wait-and-see"} <= set(ATTACKS)
    assert "nexus5" in DEVICES

# -- parse_chaos edge cases ----------------------------------------------------

def test_parse_chaos_rejects_duplicate_index_naming_the_token():
    with pytest.raises(ReproError, match=r"duplicate shard index '2'"):
        parse_chaos("crash:0,2,2")


def test_parse_chaos_rejects_negative_index_naming_the_token():
    with pytest.raises(ReproError, match=r"shard index '-1' is negative"):
        parse_chaos("hang:-1")


def test_parse_chaos_rejects_trailing_comma():
    with pytest.raises(ReproError, match=r"trailing or doubled comma"):
        parse_chaos("error:0,")


def test_parse_chaos_rejects_doubled_comma():
    with pytest.raises(ReproError, match=r"trailing or doubled comma"):
        parse_chaos("error:0,,1")


def test_parse_chaos_rejects_non_integer_naming_the_token():
    with pytest.raises(ReproError, match=r"'two' is not a shard index"):
        parse_chaos("crash:two")


def test_parse_chaos_rejects_out_of_range_index_against_shard_count():
    with pytest.raises(ReproError,
                       match=r"shard index 3 is out of range for 3 shard"):
        parse_chaos("crash:0,3", shard_count=3)
    # Without a shard count the same spec parses fine.
    assert parse_chaos("crash:0,3") == ("crash", (0, 3))


def test_parse_chaos_out_of_range_is_caught_at_shard_time():
    spec = CampaignSpec(installs=4, chaos="crash:5")
    with pytest.raises(ReproError, match=r"out of range for 2 shard"):
        spec.shard(2)
    assert len(spec.shard(6)) == 6  # index 5 exists here


def test_parse_chaos_accepts_whitespace_around_indices():
    assert parse_chaos("error: 0, 1") == ("error", (0, 1))


def test_poll_interval_floor_rejects_livelock_intervals():
    # Found by fuzzing: a 1 ns poll loop against the 60 s arm budget
    # floods the kernel event cap.  The spec rejects it up front.
    with pytest.raises(ReproError, match=r"poll_interval_ns must be >="):
        CampaignSpec(installs=1, attack="wait-and-see",
                     poll_interval_ns=1)
    with pytest.raises(ReproError, match=r"poll_interval_ns must be >="):
        CampaignSpec(installs=1, attack="wait-and-see",
                     poll_interval_ns=MIN_POLL_INTERVAL_NS - 1)
    spec = CampaignSpec(installs=1, attack="wait-and-see",
                        poll_interval_ns=MIN_POLL_INTERVAL_NS)
    assert spec.poll_interval_ns == MIN_POLL_INTERVAL_NS


def test_watch_limits_default_is_lossless():
    spec = CampaignSpec(installs=1)
    assert spec.watch_limits() is None
    scenario = spec.shard(1)[0].build_scenario()
    assert scenario.system.watch_limits is None


def test_watch_limits_lowering_fills_default_drain():
    from repro.sim.events import DEFAULT_DRAIN_INTERVAL_NS

    spec = CampaignSpec(installs=1, watch_queue_depth=32)
    limits = spec.watch_limits()
    assert limits.max_queue_depth == 32
    assert limits.drain_interval_ns == DEFAULT_DRAIN_INTERVAL_NS
    explicit = CampaignSpec(installs=1, watch_queue_depth=32,
                            watch_drain_interval_ns=5_000_000)
    assert explicit.watch_limits().drain_interval_ns == 5_000_000


def test_watch_limits_reach_the_device_and_apps():
    spec = CampaignSpec(installs=1, watch_queue_depth=16,
                        watch_coalesce=True)
    scenario = spec.shard(1)[0].build_scenario()
    limits = scenario.system.watch_limits
    assert limits.max_queue_depth == 16
    assert limits.coalesce


def test_watch_axis_validation():
    with pytest.raises(ReproError, match="watch_queue_depth"):
        CampaignSpec(installs=1, watch_queue_depth=0)
    with pytest.raises(ReproError, match="watch_drain_interval_ns"):
        CampaignSpec(installs=1, watch_drain_interval_ns=-1)


@pytest.mark.parametrize("field, value, expected", [
    ("watch_queue_depth", "8",
     "watch_queue_depth must be an int or None, got str '8'"),
    ("watch_drain_interval_ns", "5",
     "watch_drain_interval_ns must be an int or None, got str '5'"),
    ("poll_interval_ns", True,
     "poll_interval_ns must be an int or None, got bool True"),
    ("max_extra_permissions", "1",
     "max_extra_permissions must be an int, got str '1'"),
    ("max_extra_permissions", None,
     "max_extra_permissions must be an int, got NoneType None"),
])
def test_int_fields_refuse_other_types_by_name(field, value, expected):
    with pytest.raises(ReproError) as caught:
        CampaignSpec.from_json_dict({"installs": 2, field: value})
    assert str(caught.value) == expected


def test_dapp_variants_are_mutually_exclusive():
    with pytest.raises(ReproError, match="mutually exclusive"):
        CampaignSpec(installs=1, defenses=("dapp", "dapp-rescan"))
