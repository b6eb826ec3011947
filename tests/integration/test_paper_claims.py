"""Integration tests: the paper's headline claims, end to end.

Each test reproduces one sentence-level claim from the paper on the
full simulated stack (device + installer + attacker + defenses).
"""

import pytest

from repro.android import device
from repro.android.apk import ApkBuilder
from repro.android.pia import ConsentUser
from repro.attacks.base import MaliciousApp, fingerprint_for
from repro.attacks.hare import HareAttacker, HareCreatingSystemApp, build_svoice_apk
from repro.attacks.privilege_escalation import (
    VULNERABLE_APP_PACKAGE,
    VulnerableSystemApp,
    VulnerableSystemAppAttacker,
    build_vulnerable_apk,
)
from repro.attacks.toctou import FileObserverHijacker
from repro.attacks.wait_and_see import WaitAndSeeHijacker
from repro.core.campaign import Campaign, benign_workload
from repro.core.scenario import Scenario
from repro.installers import (
    AmazonInstaller,
    BaiduInstaller,
    DTIgniteInstaller,
    GooglePlayInstaller,
    NewAmazonInstaller,
    QihooInstaller,
    XiaomiInstaller,
)

TARGET = "com.victim.app"

SDCARD_STORES = [AmazonInstaller, XiaomiInstaller, BaiduInstaller,
                 QihooInstaller, DTIgniteInstaller]


def test_claim_every_sdcard_installer_hijackable_via_fileobserver():
    """'we demonstrate the TOCTOU vulnerability in all installers using
    the SD-Card'"""
    for installer_cls in SDCARD_STORES:
        scenario = Scenario.build(
            installer=installer_cls,
            attacker_factory=lambda s, c=installer_cls: FileObserverHijacker(
                fingerprint_for(c)
            ),
        )
        scenario.publish_app(TARGET)
        assert scenario.run_install(TARGET).hijacked, installer_cls.__name__


def test_claim_wait_and_see_works_without_fileobserver():
    """'this simple wait-and-see strategy works very well'"""
    for installer_cls in (AmazonInstaller, BaiduInstaller, DTIgniteInstaller):
        scenario = Scenario.build(
            installer=installer_cls,
            attacker_factory=lambda s, c=installer_cls: WaitAndSeeHijacker(
                fingerprint_for(c)
            ),
        )
        scenario.publish_app(TARGET)
        assert scenario.run_install(TARGET).hijacked, installer_cls.__name__


def test_claim_dtignite_on_galaxy_s6_verizon():
    """'we successfully attacked DTIgnite ... on Galaxy S6 Edge (Verizon)'"""
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: WaitAndSeeHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
        device=device.galaxy_s6_edge_verizon(),
    )
    scenario.publish_app("com.carrier.bloatware", label="Carrier App")
    outcome = scenario.run_install("com.carrier.bloatware")
    assert outcome.hijacked


def test_claim_attacker_gains_dangerous_permissions_without_consent():
    """'installing any apps, acquiring dangerous-level permissions
    without user's consent'"""
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    scenario.publish_app(TARGET, uses_permissions=(
        "android.permission.READ_CONTACTS",
    ))
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked
    # The hijacked package inherited the dangerous grant silently.
    assert scenario.system.pms.check_permission(
        "android.permission.READ_CONTACTS", TARGET
    )


def test_claim_new_amazon_double_verification_defeated():
    """'this version has two hash verification protection in place, one
    by Amazon appstore itself and the other by the PMS' — both defeated."""
    scenario = Scenario.build(
        installer=NewAmazonInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(NewAmazonInstaller)
        ),
    )
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked


def test_claim_pia_phishing_shows_original_name_and_icon():
    """'defeated by embedding within the malicious APK the original
    app's name and icon'"""
    from repro.installers import NaiveSdcardInstaller
    scenario = Scenario.build(
        installer=NaiveSdcardInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(NaiveSdcardInstaller)
        ),
    )
    scenario.publish_app("com.bank.app", label="MyBank")
    user = ConsentUser()
    outcome = scenario.run_install("com.bank.app", user=user)
    assert outcome.hijacked
    assert user.prompts_seen[0].label == "MyBank"  # the user saw the genuine name


def test_claim_full_privilege_escalation_chain():
    """'we ran our malware that stealthily installed vulnerable
    Teamviewer and later exploited it to gain system privileges'"""
    scenario = Scenario.build(
        installer=AmazonInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(AmazonInstaller)
        ),
    )
    vuln_apk = build_vulnerable_apk(scenario.system.platform_key)
    scenario.publish_apk(vuln_apk)
    # Stage 1: silent install of the vulnerable platform-signed app.
    outcome = scenario.run_install(VULNERABLE_APP_PACKAGE, arm_attacker=False)
    assert outcome.installed
    vulnerable = VulnerableSystemApp()
    scenario.system.attach(vulnerable)
    # Stage 2: drive its open command interface with system privileges.
    exploiter = VulnerableSystemAppAttacker(package="com.evil.exploiter")
    scenario.system.install_user_app(MaliciousApp.build_apk("com.evil.exploiter"))
    scenario.system.attach(exploiter)
    stage2 = ApkBuilder("com.evil.stage2").payload(b"<x>").build(exploiter.key)
    exploiter.make_dirs("/sdcard/Download")
    exploiter.write_file("/sdcard/Download/s2.apk", stage2.to_bytes())
    exploiter.exploit_install("/sdcard/Download/s2.apk")
    scenario.system.run()
    assert exploiter.result("com.evil.stage2").succeeded


def test_claim_hare_attack_steals_contacts_on_note3():
    """'the attack enables the malicious app to hijack the vlingo
    permissions and use them to steal the user's contacts'"""
    scenario = Scenario.build(installer=AmazonInstaller,
                              device=device.galaxy_note3())
    scenario.publish_apk(build_svoice_apk(scenario.system.platform_key))
    scenario.run_install("com.vlingo.midas", arm_attacker=False)
    svoice = HareCreatingSystemApp()
    scenario.system.attach(svoice)
    scenario.system.install_user_app(HareAttacker.build_hare_apk("com.evil.hare"))
    attacker = HareAttacker(package="com.evil.hare")
    scenario.system.attach(attacker)
    assert attacker.grab_and_steal(svoice).succeeded
    assert attacker.stolen_contacts


def test_claim_defenses_thwart_hijacking():
    """Table VII: FUSE DAC prevents; DAPP detects."""
    for installer_cls in SDCARD_STORES:
        prevented = Scenario.build(
            installer=installer_cls,
            attacker_factory=lambda s, c=installer_cls: FileObserverHijacker(
                fingerprint_for(c)
            ),
            defenses=("fuse-dac",),
        )
        prevented.publish_app(TARGET)
        assert prevented.run_install(TARGET).clean_install, installer_cls

        detected = Scenario.build(
            installer=installer_cls,
            attacker_factory=lambda s, c=installer_cls: FileObserverHijacker(
                fingerprint_for(c)
            ),
            defenses=("dapp",),
        )
        detected.publish_app(TARGET)
        detected.run_install(TARGET)
        assert detected.dapp.detected, installer_cls


def test_claim_no_false_alarms_on_benign_use():
    """Section VI-A: many benign installs, zero false alarms."""
    scenario = Scenario.build(
        installer=AmazonInstaller,
        defenses=("dapp", "fuse-dac", "intent-detection", "intent-origin"),
    )
    packages = benign_workload(scenario, count=40)
    stats = Campaign(scenario).install_many(packages)
    assert stats.clean_installs == 40
    assert stats.alarms == 0
    assert stats.blocked == 0


def test_claim_google_play_design_is_safe():
    """The internal-storage design resists every Step-3 attacker."""
    for attacker_cls in (FileObserverHijacker, WaitAndSeeHijacker):
        scenario = Scenario.build(
            installer=GooglePlayInstaller,
            attacker_factory=lambda s, c=attacker_cls: c(
                fingerprint_for(DTIgniteInstaller)  # watches sdcard in vain
            ),
        )
        scenario.publish_app(TARGET)
        assert scenario.run_install(TARGET).clean_install


def test_claim_hijack_persists_across_updates():
    """Once the first install is hijacked, the device is persistently
    compromised: the attacker's certificate now owns the package, and
    even the genuine store's future updates are rejected by the PMS's
    signature-continuity check."""
    scenario = Scenario.build(
        installer=DTIgniteInstaller,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(DTIgniteInstaller)
        ),
    )
    scenario.publish_app(TARGET, version=1)
    first = scenario.run_install(TARGET)
    assert first.hijacked
    # The genuine v2 update now fails certificate continuity.
    scenario.attacker.observer.stop_watching()
    scenario.publish_app(TARGET, version=2)
    second = scenario.run_install(TARGET, arm_attacker=False)
    assert not second.installed or (
        scenario.system.pms.require_package(TARGET).version_code == 1)
    installed = scenario.system.pms.require_package(TARGET)
    assert installed.certificate.owner == "gia-attacker"
    assert installed.version_code == 1
