"""Tests for Hare permission grabbing (Section III-B escalation)."""

import pytest

from repro.errors import SecurityException
from repro.android.device import galaxy_note3
from repro.attacks.hare import (
    HareAttacker,
    HareCreatingSystemApp,
    SVOICE_PACKAGE,
    VLINGO_READ,
    build_svoice_apk,
)
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller


def build_scenario():
    scenario = Scenario.build(installer=AmazonInstaller, device=galaxy_note3())
    svoice_apk = build_svoice_apk(scenario.system.platform_key)
    scenario.publish_apk(svoice_apk)
    outcome = scenario.run_install(SVOICE_PACKAGE, arm_attacker=False)
    assert outcome.installed
    svoice = HareCreatingSystemApp()
    scenario.system.attach(svoice)
    return scenario, svoice


def test_vlingo_permission_is_a_hare():
    scenario, _svoice = build_scenario()
    # Used by the system app but defined by nobody: a Hare.
    assert scenario.system.permission_registry.lookup(VLINGO_READ) is None


def test_contacts_guarded_against_normal_apps():
    scenario, svoice = build_scenario()
    from repro.attacks.base import MaliciousApp
    scenario.system.install_user_app(MaliciousApp.build_apk("com.plain.app"))
    with pytest.raises(SecurityException):
        svoice.query_contacts("com.plain.app")


def test_malware_defines_hare_and_steals_contacts():
    scenario, svoice = build_scenario()
    hare_apk = HareAttacker.build_hare_apk("com.evil.hare")
    scenario.system.install_user_app(hare_apk)
    attacker = HareAttacker(package="com.evil.hare")
    scenario.system.attach(attacker)
    result = attacker.grab_and_steal(svoice)
    assert result.succeeded
    assert len(attacker.stolen_contacts) == 3
    # The malware now *owns* the permission definition.
    definition = scenario.system.permission_registry.require(VLINGO_READ)
    assert definition.defined_by == "com.evil.hare"


def test_grab_fails_when_permission_already_defined():
    """On images where a legitimate app defines it, the Hare is closed."""
    scenario, svoice = build_scenario()
    from repro.android.apk import ApkBuilder
    legitimate_definer = (
        ApkBuilder("com.samsung.permissionpack")
        .defines_permission(VLINGO_READ, level="signature")
        .build(scenario.system.platform_key)
    )
    scenario.system.install_system_app(legitimate_definer)
    hare_apk = HareAttacker.build_hare_apk("com.evil.hare")
    scenario.system.install_user_app(hare_apk)
    attacker = HareAttacker(package="com.evil.hare")
    scenario.system.attach(attacker)
    result = attacker.grab_and_steal(svoice)
    assert not result.succeeded
    # signature-level + platform definer: the malware's cert mismatches.
    definition = scenario.system.permission_registry.require(VLINGO_READ)
    assert definition.defined_by == "com.samsung.permissionpack"


def test_result_reports_attack_metadata():
    scenario, svoice = build_scenario()
    hare_apk = HareAttacker.build_hare_apk("com.evil.hare")
    scenario.system.install_user_app(hare_apk)
    attacker = HareAttacker(package="com.evil.hare")
    scenario.system.attach(attacker)
    result = attacker.grab_and_steal(svoice)
    assert result.attack_name == "hare-permission-grab"
    assert result.detail["permission"] == VLINGO_READ
    assert result.detail["contacts_stolen"] == 3
