"""The engine's core contract: one seed, bit-identical merged stats.

Acceptance: the same top-level seed must produce identical merged
``CampaignStats`` counters *and* identical per-install trace records
(each install's ``install/outcome`` attributes and the simulated
duration of each of its ``ait/*`` spans, in global install order) for
every combination of ``workers in {1, 2, 4}`` and ``shards in {1, 8}``,
on both benign and attack campaigns, with and without defenses.
"""

import dataclasses

import pytest

from repro.engine import CampaignSpec, run_fleet

WORKERS = (1, 2, 4)
SHARDS = (1, 8)

BENIGN = CampaignSpec(
    installs=24,
    installer="amazon",
    defenses=("dapp", "fuse-dac", "intent-detection", "intent-origin"),
    seed=7,
)
ATTACKED = CampaignSpec(
    installs=24,
    installer="dtignite",
    attack="fileobserver",
    defenses=("dapp",),
    seed=7,
)


def per_install(report):
    """Each install's outcome attributes and ``ait/*`` span durations.

    In global install order: shards are merged in index order and each
    shard traces its installs in order.  Absolute timestamps restart
    with every shard's device, so spans are compared by duration.
    """
    installs, spans = [], []
    for record in report.trace_records():
        if record["type"] == "span" and record["name"].startswith("ait/"):
            spans.append((record["name"],
                          record["end_ns"] - record["start_ns"]))
        elif record["name"] == "install/outcome":
            installs.append((record["attrs"], spans))
            spans = []
    return installs


@pytest.mark.parametrize("spec", [BENIGN, ATTACKED],
                         ids=["benign-all-defenses", "attack-dapp"])
def test_merged_stats_identical_across_workers_and_shards(spec):
    spec = dataclasses.replace(spec, observe=True)
    reference = run_fleet(spec, shards=1, workers=1, backend="serial")
    assert reference.stats.runs == spec.installs
    expected = per_install(reference)
    assert len(expected) == spec.installs
    for shards in SHARDS:
        for workers in WORKERS:
            report = run_fleet(spec, shards=shards, workers=workers)
            layout = f"shards={shards} workers={workers}"
            assert (report.stats.counter_tuple()
                    == reference.stats.counter_tuple()), layout
            assert per_install(report) == expected, layout


def test_attack_campaign_reference_values():
    """Pin the ground truth the determinism matrix compares against."""
    stats = run_fleet(ATTACKED, shards=1, workers=1, backend="serial").stats
    assert stats.runs == 24
    assert stats.hijacks == 24          # DAPP detects but does not prevent
    assert stats.alarmed_runs == 24
    assert stats.blocked == 0


def test_different_seeds_change_the_workload():
    a = run_fleet(CampaignSpec(installs=6, seed=1, observe=True), shards=2,
                  backend="serial")
    b = run_fleet(CampaignSpec(installs=6, seed=2, observe=True), shards=2,
                  backend="serial")
    # Six clean benign installs either way: the counters cannot tell
    # the seeds apart, the per-install trace can.
    assert a.stats.counter_tuple() == b.stats.counter_tuple()
    assert a.stats.runs == 6
    # APK sizes (and thus simulated download time) shift with the seed.
    assert per_install(a) != per_install(b)
    assert ([attrs for attrs, _ in per_install(a)]
            == [attrs for attrs, _ in per_install(b)])


def test_rerun_same_seed_is_bit_identical():
    first = run_fleet(BENIGN, shards=8, workers=2).stats
    second = run_fleet(BENIGN, shards=8, workers=2).stats
    assert first == second
