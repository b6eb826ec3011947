"""Tests for scenario composition."""

import pytest

from repro.errors import ReproError
from repro.attacks.base import MaliciousApp, fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller, DTIgniteInstaller, GooglePlayInstaller


def test_installer_provisioned_as_system_app():
    scenario = Scenario.build(installer=DTIgniteInstaller)
    package = scenario.system.pms.require_package("com.dti.ignite")
    assert package.is_system
    assert package.permissions.has("android.permission.INSTALL_PACKAGES")


def test_non_silent_installer_lacks_install_packages():
    from repro.installers import NaiveSdcardInstaller
    scenario = Scenario.build(installer=NaiveSdcardInstaller)
    package = scenario.system.pms.require_package(
        NaiveSdcardInstaller.profile.package
    )
    assert not package.permissions.has("android.permission.INSTALL_PACKAGES")


def test_attacker_provisioned_with_storage_only():
    scenario = Scenario.build(installer=AmazonInstaller, attacker=MaliciousApp)
    caller = scenario.attacker.caller
    assert caller.has_permission("android.permission.WRITE_EXTERNAL_STORAGE")
    assert not caller.has_permission("android.permission.INSTALL_PACKAGES")


def test_unknown_defense_rejected():
    with pytest.raises(ReproError):
        Scenario.build(installer=AmazonInstaller, defenses=("magic-shield",))


def test_run_install_requires_published_app():
    scenario = Scenario.build(installer=AmazonInstaller)
    with pytest.raises(ReproError):
        scenario.run_install("com.never.published")


def test_outcome_reports_certificates():
    scenario = Scenario.build(installer=AmazonInstaller)
    scenario.publish_app("com.app")
    outcome = scenario.run_install("com.app")
    assert outcome.genuine_certificate_owner == "legit-developer"
    assert outcome.installed_certificate_owner == "legit-developer"
    assert not outcome.hijacked


def test_outcome_elapsed_time_positive():
    scenario = Scenario.build(installer=AmazonInstaller)
    scenario.publish_app("com.app")
    outcome = scenario.run_install("com.app")
    assert outcome.elapsed_ns > 0


def test_defense_reports_collected():
    scenario = Scenario.build(
        installer=AmazonInstaller,
        defenses=("dapp", "fuse-dac", "intent-detection", "intent-origin"),
    )
    reports = scenario.defense_reports()
    assert sorted(report.defense_name for report in reports) == [
        "DAPP", "FUSE-DAC", "Intent-Detection", "Intent-Origin",
    ]
    assert not any(report.detected or report.prevented
                   for report in scenario.defense_reports())


def test_all_defenses_coexist_with_attack():
    scenario = Scenario.build(
        installer=AmazonInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(AmazonInstaller)
        ),
        defenses=("dapp", "fuse-dac"),
    )
    scenario.publish_app("com.app")
    outcome = scenario.run_install("com.app")
    # FUSE DAC prevents; DAPP has nothing to report beyond clean events.
    assert outcome.clean_install
    assert scenario.fuse_dac.report.prevented


def test_publish_app_with_custom_key():
    from repro.android.signing import SigningKey
    scenario = Scenario.build(installer=AmazonInstaller)
    key = SigningKey("indie", "k")
    scenario.publish_app("com.indie", key=key)
    outcome = scenario.run_install("com.indie")
    assert outcome.installed_certificate_owner == "indie"


def test_seed_changes_randomized_names():
    names = []
    for seed in (1, 2):
        scenario = Scenario.build(installer=AmazonInstaller, seed=seed)
        scenario.publish_app("com.app")
        outcome = scenario.run_install("com.app")
        from repro.core.ait import AITStep
        names.append(outcome.trace.step_for(AITStep.DOWNLOAD).detail["path"])
    assert names[0] != names[1]


def test_same_seed_reproduces_exactly():
    results = []
    for _ in range(2):
        scenario = Scenario.build(
            installer=AmazonInstaller,
            attacker_factory=lambda s: FileObserverHijacker(
                fingerprint_for(AmazonInstaller)
            ),
            seed=99,
        )
        scenario.publish_app("com.app")
        outcome = scenario.run_install("com.app")
        results.append((outcome.hijacked, outcome.elapsed_ns,
                        scenario.attacker.swaps))
    assert results[0] == results[1]
