"""Tests for campaigns and the benign workload generator."""

from repro.attacks.base import fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.core.campaign import Campaign, CampaignStats, benign_workload
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller, DTIgniteInstaller


def test_benign_campaign_counts_clean_installs():
    scenario = Scenario.build(installer=AmazonInstaller)
    packages = benign_workload(scenario, count=5)
    stats = Campaign(scenario).install_many(packages)
    assert stats.runs == 5
    assert stats.clean_installs == 5
    assert stats.hijacks == 0
    assert stats.alarms == 0


def test_attack_campaign_counts_hijacks():
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    packages = benign_workload(scenario, count=3)
    stats = Campaign(scenario).install_many(packages)
    assert stats.hijacks == 3
    assert stats.hijack_rate == 1.0


def test_rearm_between_runs_enables_serial_hijacks():
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    packages = benign_workload(scenario, count=2)
    stats = Campaign(scenario).install_many(packages, rearm_between=False)
    # Without re-arming, only the first install is hijacked.
    assert stats.hijacks == 1


def test_campaign_with_defense_counts_blocks():
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
        defenses=("fuse-dac",),
    )
    packages = benign_workload(scenario, count=2)
    stats = Campaign(scenario).install_many(packages)
    assert stats.hijacks == 0
    assert stats.blocked >= 1


def test_stats_error_counting():
    stats = CampaignStats()
    from repro.core.outcomes import InstallOutcome
    stats.record(InstallOutcome(requested_package="x", error="boom"), [])
    assert stats.errors == 1
    assert stats.runs == 1


def _defended_attack_scenario():
    return Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
        defenses=("fuse-dac",),
    )


def test_blocked_accumulates_across_runs_of_one_campaign():
    """Regression: alarms/blocked were overwritten from the cumulative
    defense reports on each record() instead of accumulating deltas."""
    scenario = _defended_attack_scenario()
    packages = benign_workload(scenario, count=3)
    campaign = Campaign(scenario)
    per_run_blocked = []
    for package in packages:
        before = campaign.stats.blocked
        campaign.install_many([package])
        per_run_blocked.append(campaign.stats.blocked - before)
    # Every run contributes its own delta; the total is their sum, not
    # the last run's cumulative report.
    assert all(delta >= 1 for delta in per_run_blocked)
    assert campaign.stats.blocked == sum(per_run_blocked)
    assert campaign.stats.blocked_runs == 3


def test_stats_accumulate_across_scenarios():
    """A shared stats object keeps totals across fresh scenarios, whose
    defense reports restart from zero (the fleet engine relies on this)."""
    stats = CampaignStats()
    for _ in range(2):
        scenario = _defended_attack_scenario()
        packages = benign_workload(scenario, count=2)
        Campaign(scenario, stats=stats).install_many(packages)
    assert stats.runs == 4
    assert stats.blocked_runs == 4
    # Old `=` semantics would report only the second scenario's total.
    assert stats.blocked >= 4


def test_merge_matches_incremental_recording():
    scenario_a = _defended_attack_scenario()
    stats_a = Campaign(scenario_a).install_many(
        benign_workload(scenario_a, count=2))
    scenario_b = Scenario.build(installer=AmazonInstaller)
    stats_b = Campaign(scenario_b).install_many(
        benign_workload(scenario_b, count=3))
    merged = stats_a.merge(stats_b)
    assert merged.runs == 5
    assert merged.blocked == stats_a.blocked
    assert merged.clean_installs == stats_a.clean_installs + 3


def test_benign_workload_publishes_unique_packages():
    scenario = Scenario.build(installer=AmazonInstaller)
    packages = benign_workload(scenario, count=10)
    assert len(set(packages)) == 10
    assert all(pkg in scenario.listings for pkg in packages)
