"""Tests for privilege escalation via planted vulnerable system apps."""

import pytest

from repro.android.apk import ApkBuilder
from repro.android.intents import Intent
from repro.attacks.base import MaliciousApp, fingerprint_for
from repro.attacks.privilege_escalation import (
    TV_COMMAND_EXTRA,
    VULNERABLE_APP_PACKAGE,
    VulnerableSystemApp,
    VulnerableSystemAppAttacker,
    build_vulnerable_apk,
)
from repro.attacks.toctou import FileObserverHijacker
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller

STAGE2 = "com.evil.stage2"


def build_scenario():
    scenario = Scenario.build(installer=AmazonInstaller)
    vuln_apk = build_vulnerable_apk(scenario.system.platform_key)
    scenario.publish_apk(vuln_apk)
    return scenario


def plant_vulnerable_app(scenario):
    outcome = scenario.run_install(VULNERABLE_APP_PACKAGE, arm_attacker=False)
    assert outcome.installed
    app = VulnerableSystemApp()
    scenario.system.attach(app)
    return app


def install_exploiter(scenario):
    scenario.system.install_user_app(
        MaliciousApp.build_apk("com.evil.exploiter"), installer="sideload"
    )
    attacker = VulnerableSystemAppAttacker(package="com.evil.exploiter")
    scenario.system.attach(attacker)
    return attacker


def test_platform_signed_app_gets_install_packages():
    """The single platform key hands out signatureOrSystem permissions."""
    scenario = build_scenario()
    plant_vulnerable_app(scenario)
    assert scenario.system.pms.check_permission(
        "android.permission.INSTALL_PACKAGES", VULNERABLE_APP_PACKAGE
    )


def test_vulnerable_app_installs_attacker_payload():
    scenario = build_scenario()
    app = plant_vulnerable_app(scenario)
    attacker = install_exploiter(scenario)
    payload = (
        ApkBuilder(STAGE2)
        .uses_permission("android.permission.READ_CONTACTS")
        .payload(b"<stage2>")
        .build(attacker.key)
    )
    attacker.make_dirs("/sdcard/Download")
    attacker.write_file("/sdcard/Download/stage2.apk", payload.to_bytes())
    attacker.exploit_install("/sdcard/Download/stage2.apk")
    scenario.system.run()
    assert scenario.system.pms.is_installed(STAGE2)
    assert attacker.result(STAGE2).succeeded
    assert app.executed[0]["op"] == "install"


def test_vulnerable_app_uninstalls_on_command():
    scenario = build_scenario()
    plant_vulnerable_app(scenario)
    attacker = install_exploiter(scenario)
    scenario.publish_app("com.victim.remove")
    scenario.run_install("com.victim.remove", arm_attacker=False)
    attacker.start_activity(Intent(
        target_package=VULNERABLE_APP_PACKAGE,
        target_activity="RemoteCommandActivity",
    ).with_extra(TV_COMMAND_EXTRA,
                 {"op": "uninstall", "package": "com.victim.remove"}))
    scenario.system.run()
    assert not scenario.system.pms.is_installed("com.victim.remove")


def test_attacker_alone_cannot_silently_install():
    scenario = build_scenario()
    attacker = install_exploiter(scenario)
    from repro.errors import SecurityException
    payload = ApkBuilder(STAGE2).build(attacker.key)
    attacker.make_dirs("/sdcard/Download")
    attacker.write_file("/sdcard/Download/stage2.apk", payload.to_bytes())
    with pytest.raises(SecurityException):
        scenario.system.pms.install_package(
            "/sdcard/Download/stage2.apk", attacker.caller
        )


def test_full_chain_hijack_then_escalate():
    """The complete paper scenario: GIA plants the app, then exploits it."""
    scenario = Scenario.build(
        installer=AmazonInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(AmazonInstaller)
        ),
    )
    scenario.publish_app("com.some.game", label="Game")
    vuln_apk = build_vulnerable_apk(scenario.system.platform_key)

    hijacker = scenario.attacker
    original_forge = hijacker.forge_replacement
    # The hijacker swaps in the *vulnerable platform-signed app's* bytes
    # instead of a repackaged twin... but package continuity matters, so
    # here the realistic chain: hijack installs attacker code, attacker
    # later sideloads the vulnerable app through a consented install.
    outcome = scenario.run_install("com.some.game")
    assert outcome.hijacked  # step 1 of the chain: code on the device
    scenario.publish_apk(vuln_apk)
    outcome2 = scenario.run_install(VULNERABLE_APP_PACKAGE, arm_attacker=False)
    assert outcome2.installed
    assert scenario.system.pms.check_permission(
        "android.permission.INSTALL_PACKAGES", VULNERABLE_APP_PACKAGE
    )
