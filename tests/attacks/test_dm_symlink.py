"""Tests for the Download Manager symlink TOCTOU (Step 2)."""

import pytest

from repro.android.device import nexus5_marshmallow, xiaomi_mi4
from repro.android.download_manager import DM_DATABASE_PATH, SymlinkMode
from repro.attacks.dm_symlink import DMSymlinkAttacker
from repro.core.ait import AITStep
from repro.core.scenario import Scenario
from repro.installers import GooglePlayInstaller

SECRET_PATH = "/data/data/com.android.vending/files/tokens.txt"
SECRET = b"SECRET-PLAY-URL-TOKEN"


def build_scenario(device_profile):
    scenario = Scenario.build(
        installer=GooglePlayInstaller,
        attacker=DMSymlinkAttacker,
        device=device_profile,
    )
    system = scenario.system
    system.fs.makedirs("/data/data/com.android.vending/files",
                       system.system_caller)
    system.fs.write_bytes(SECRET_PATH, system.system_caller, SECRET, mode=0o600)
    return scenario


@pytest.mark.parametrize("device_profile,expected_mode", [
    (xiaomi_mi4(), SymlinkMode.LEXICAL),
    (nexus5_marshmallow(), SymlinkMode.CHECK_THEN_USE),
])
def test_steal_internal_file_on_both_android_versions(device_profile,
                                                      expected_mode):
    """Section III-C: verified on Android 4.4 and 6.0."""
    scenario = build_scenario(device_profile)
    assert scenario.system.dm.symlink_mode is expected_mode
    loot = scenario.system.run_process(scenario.attacker.steal_file(SECRET_PATH))
    assert loot.leaked == SECRET
    result = scenario.attacker.result(loot)
    assert result.succeeded
    assert result.ait_step is AITStep.DOWNLOAD


def test_attacker_cannot_read_target_directly():
    scenario = build_scenario(xiaomi_mi4())
    from repro.errors import AccessDenied
    with pytest.raises(AccessDenied):
        scenario.system.fs.read_bytes(SECRET_PATH, scenario.attacker.caller)


def test_dm_database_leak_exposes_urls():
    """Leaking the DM's own database discloses every download URL."""
    scenario = build_scenario(xiaomi_mi4())
    system = scenario.system
    system.network.host("http://secret.example/hidden-token-url", b"x")
    client = scenario.attacker.caller
    system.dm.enqueue(client, "http://secret.example/hidden-token-url",
                      "/sdcard/Download/x.bin")
    system.run()
    loot = system.run_process(
        scenario.attacker.steal_file(DM_DATABASE_PATH)
    )
    assert b"hidden-token-url" in loot.leaked


def test_dm_database_deletion_dos():
    """Deleting the DM database: the paper's Google Play DoS."""
    scenario = build_scenario(xiaomi_mi4())
    loot = scenario.system.run_process(
        scenario.attacker.delete_file(DM_DATABASE_PATH)
    )
    assert loot.deleted
    assert scenario.attacker.result(loot).succeeded


def test_six_oh_race_needs_multiple_attempts_sometimes():
    scenario = build_scenario(nexus5_marshmallow())
    loot = scenario.system.run_process(scenario.attacker.steal_file(SECRET_PATH))
    assert loot.leaked == SECRET
    assert loot.attempts >= 1


def test_safe_mode_defeats_the_attack():
    """The post-report fix: resolve-once semantics stop the race."""
    scenario = build_scenario(nexus5_marshmallow())
    scenario.system.dm.symlink_mode = SymlinkMode.SAFE
    loot = scenario.system.run_process(scenario.attacker.steal_file(SECRET_PATH))
    assert loot.leaked is None
    assert not scenario.attacker.result(loot).succeeded


def test_delete_internal_file():
    scenario = build_scenario(xiaomi_mi4())
    loot = scenario.system.run_process(scenario.attacker.delete_file(SECRET_PATH))
    assert loot.deleted
    assert not scenario.system.fs.exists(SECRET_PATH)
