"""Tests for the Tencent, SlideMe and Huawei installers.

"We further tested popular appstore apps (Baidu, Tencent, Qihoo360,
SlideMe) and found that all of them are vulnerable." (Section IV-B)
"""

import pytest

from repro.attacks.base import fingerprint_for
from repro.attacks.toctou import FileObserverHijacker
from repro.attacks.wait_and_see import WaitAndSeeHijacker
from repro.core.scenario import Scenario
from repro.installers import (
    HuaweiInstaller,
    SlideMeInstaller,
    TencentInstaller,
)

TARGET = "com.victim.app"


@pytest.mark.parametrize("installer_cls", [
    TencentInstaller, SlideMeInstaller, HuaweiInstaller,
])
def test_benign_install_completes(installer_cls):
    scenario = Scenario.build(installer=installer_cls)
    scenario.publish_app(TARGET, label="Victim")
    outcome = scenario.run_install(TARGET)
    assert outcome.clean_install, outcome.error


@pytest.mark.parametrize("installer_cls", [
    TencentInstaller, SlideMeInstaller, HuaweiInstaller,
])
def test_all_are_hijackable(installer_cls):
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(installer_cls)
        ),
    )
    scenario.publish_app(TARGET, label="Victim")
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked, installer_cls.__name__


@pytest.mark.parametrize("installer_cls", [TencentInstaller, HuaweiInstaller])
def test_wait_and_see_also_works(installer_cls):
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: WaitAndSeeHijacker(
            fingerprint_for(installer_cls)
        ),
    )
    scenario.publish_app(TARGET)
    assert scenario.run_install(TARGET).hijacked


def test_slideme_is_a_consent_path_installer():
    """Side-loaded store: no INSTALL_PACKAGES, PIA dialog shown."""
    from repro.android.pia import ConsentUser
    user = ConsentUser()
    scenario = Scenario.build(installer=SlideMeInstaller)
    scenario.publish_app(TARGET, label="Victim")
    outcome = scenario.run_install(TARGET, user=user)
    assert outcome.installed
    assert user.prompts_seen
    assert not scenario.system.pms.check_permission(
        "android.permission.INSTALL_PACKAGES", SlideMeInstaller.profile.package
    )


@pytest.mark.parametrize("installer_cls,defense,expect_hijack", [
    (TencentInstaller, "fuse-dac", False),
    (HuaweiInstaller, "fuse-dac", False),
    (SlideMeInstaller, "dapp", True),   # detection, not prevention
])
def test_defenses_cover_new_stores(installer_cls, defense, expect_hijack):
    scenario = Scenario.build(
        installer=installer_cls,
        attacker_factory=lambda s: FileObserverHijacker(
            fingerprint_for(installer_cls)
        ),
        defenses=(defense,),
    )
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET)
    assert outcome.hijacked == expect_hijack
    assert any(report.detected or report.prevented
               for report in scenario.defense_reports())


def test_origin_aware_tap_defeats_redirect():
    """Suggestion 4 end to end: origin defense + cautious user."""
    from repro.android.apk import ApkBuilder
    from repro.android.app import App
    from repro.android.intents import Intent
    from repro.android.signing import SigningKey
    from repro.attacks.redirect_intent import RedirectIntentAttacker
    from repro.installers import GooglePlayInstaller
    from repro.sim.clock import seconds

    class Victim(App):
        package = "com.facebook.katana"

        def redirect(self):
            self.start_activity(
                Intent(target_package="com.android.vending")
                .with_extra("show_package", "com.facebook.orca")
            )

    scenario = Scenario.build(
        installer=GooglePlayInstaller,
        attacker_factory=lambda s: RedirectIntentAttacker(
            "com.facebook.katana", "com.android.vending", "com.evil.lookalike"
        ),
        defenses=("intent-origin",),
    )
    scenario.publish_app("com.facebook.orca", label="Messenger")
    scenario.publish_app("com.evil.lookalike", label="Messenger")
    scenario.system.install_user_app(
        ApkBuilder("com.facebook.katana").build(SigningKey("fb", "k"))
    )
    victim = Victim()
    scenario.system.attach(victim)
    scenario.system.ams.bring_to_foreground(victim.package)
    scenario.attacker.arm(seconds(5))
    victim.redirect()
    scenario.system.run()
    # The page was switched, but the origin gives the game away: the
    # Intent the store shows carries the attacker as its sender, so a
    # user who trusts only the app they came from declines to install.
    assert scenario.installer.displayed_package == "com.evil.lookalike"
    _when, _shown, intent = scenario.installer.display_history[-1]
    assert intent.get_intent_origin() == scenario.attacker.package
    assert not scenario.system.pms.is_installed("com.evil.lookalike")
