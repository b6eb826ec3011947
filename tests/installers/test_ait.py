"""Tests for the AIT engine: download, verify, trigger, install."""

import pytest

from repro.errors import InstallVerificationError
from repro.android.fileobserver import FileObserver
from repro.android.filesystem import FileEventType
from repro.android.pia import ConsentUser
from repro.core.ait import AITStep
from repro.core.scenario import Scenario
from repro.installers import (
    AmazonInstaller,
    BaiduInstaller,
    DTIgniteInstaller,
    GooglePlayInstaller,
    NaiveSdcardInstaller,
    NewAmazonInstaller,
    QihooInstaller,
    SecureInternalInstaller,
    XiaomiInstaller,
)

TARGET = "com.victim.app"


def run_clean_install(installer_cls, **kwargs):
    scenario = Scenario.build(installer=installer_cls, **kwargs)
    scenario.publish_app(TARGET, label="Victim")
    outcome = scenario.run_install(TARGET)
    return scenario, outcome


@pytest.mark.parametrize("installer_cls", [
    AmazonInstaller, NewAmazonInstaller, XiaomiInstaller, BaiduInstaller,
    QihooInstaller, DTIgniteInstaller, GooglePlayInstaller,
    SecureInternalInstaller, NaiveSdcardInstaller,
])
def test_benign_ait_completes(installer_cls):
    scenario, outcome = run_clean_install(installer_cls)
    assert outcome.clean_install, outcome.error
    assert outcome.installed_certificate_owner == "legit-developer"


def test_trace_records_all_steps():
    scenario, outcome = run_clean_install(AmazonInstaller)
    steps = [entry.step for entry in outcome.trace.steps]
    assert AITStep.DOWNLOAD in steps
    assert AITStep.TRIGGER in steps
    assert AITStep.INSTALL in steps
    assert outcome.trace.completed


def test_trace_mechanisms_reflect_design():
    _scenario, dm_outcome = run_clean_install(DTIgniteInstaller)
    assert "DownloadManager" in dm_outcome.trace.step_for(AITStep.DOWNLOAD).mechanism
    _scenario, self_outcome = run_clean_install(AmazonInstaller)
    assert "self-download" in self_outcome.trace.step_for(AITStep.DOWNLOAD).mechanism
    assert "sdcard" in self_outcome.trace.step_for(AITStep.DOWNLOAD).mechanism
    _scenario, play_outcome = run_clean_install(GooglePlayInstaller)
    assert "internal" in play_outcome.trace.step_for(AITStep.DOWNLOAD).mechanism


def test_verify_read_count_visible_on_event_stream():
    """The integrity check leaks exactly N CLOSE_NOWRITE events."""
    for installer_cls, expected in ((AmazonInstaller, 7), (BaiduInstaller, 2),
                                    (QihooInstaller, 3)):
        scenario = Scenario.build(installer=installer_cls)
        scenario.publish_app(TARGET)
        observer = FileObserver(scenario.system.hub,
                                installer_cls.profile.download_dir)
        observer.start_watching()
        scenario.run_install(TARGET)
        # PMS adds one final read when it installs the file.
        assert observer.count(FileEventType.CLOSE_NOWRITE) == expected + 1


def test_amazon_randomized_staging_name():
    scenario, outcome = run_clean_install(AmazonInstaller)
    staged = outcome.trace.step_for(AITStep.DOWNLOAD).detail["path"]
    assert TARGET not in staged
    assert staged.endswith(".apk")


def test_xiaomi_rename_emits_moved_to():
    scenario = Scenario.build(installer=XiaomiInstaller)
    scenario.publish_app(TARGET)
    observer = FileObserver(scenario.system.hub,
                            XiaomiInstaller.profile.download_dir)
    observer.start_watching()
    scenario.run_install(TARGET)
    assert observer.count(FileEventType.MOVED_TO) == 1


def test_google_play_stages_world_readable_then_deletes():
    scenario = Scenario.build(installer=GooglePlayInstaller)
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET)
    staged = outcome.trace.step_for(AITStep.DOWNLOAD).detail["path"]
    assert staged.startswith("/data/data/com.android.vending/")
    assert not scenario.system.fs.exists(staged)  # deleted after install


def test_corrupt_download_fails_closed_without_retry():
    scenario = Scenario.build(installer=NaiveSdcardInstaller)
    listing = scenario.publish_app(TARGET)
    # Host corrupted bytes but keep the published metadata hash: the
    # naive installer performs no check, so this installs garbage-free —
    # use the secure installer to see the failure instead.
    secure = Scenario.build(installer=SecureInternalInstaller)
    secure_listing = secure.publish_app(TARGET)
    corrupted = secure_listing.apk.to_bytes()[:-4] + b"XXXX"
    secure.system.network.host(secure_listing.url, corrupted)
    secure.installer.profile = secure.installer.profile.__class__(
        **{**secure.installer.profile.__dict__, "redownload_on_corrupt": False}
    )
    outcome = secure.run_install(TARGET)
    assert not outcome.installed
    assert "hash mismatch" in outcome.error


def test_pia_installer_prompts_user():
    user = ConsentUser()
    scenario = Scenario.build(installer=NaiveSdcardInstaller)
    scenario.publish_app(TARGET, label="Victim")
    outcome = scenario.run_install(TARGET, user=user)
    assert outcome.installed
    assert user.prompts_seen[0].label == "Victim"


def test_pia_user_decline_aborts_ait():
    user = ConsentUser(decide=lambda prompt: False)
    scenario = Scenario.build(installer=NaiveSdcardInstaller)
    scenario.publish_app(TARGET)
    outcome = scenario.run_install(TARGET, user=user)
    assert not outcome.installed
    assert "declined" in outcome.error


def test_update_flow_replaces_version():
    scenario = Scenario.build(installer=AmazonInstaller)
    scenario.publish_app(TARGET, version=1)
    scenario.run_install(TARGET)
    scenario.publish_app(TARGET, version=2)
    outcome = scenario.run_install(TARGET)
    assert outcome.installed
    assert scenario.system.pms.require_package(TARGET).version_code == 2


def test_store_ui_displays_requested_app():
    scenario = Scenario.build(installer=AmazonInstaller)
    scenario.publish_app(TARGET)
    from repro.android.intents import Intent
    scenario.system.ams.register_app("com.someone")
    from repro.android.filesystem import Caller
    sender = Caller(uid=10099, package="com.someone")
    scenario.system.ams.start_activity(
        sender,
        Intent(target_package=AmazonInstaller.profile.package)
        .with_extra("show_package", TARGET),
    )
    scenario.system.run()
    assert scenario.installer.displayed_package == TARGET


def test_user_clicks_install_installs_displayed_app():
    scenario = Scenario.build(installer=AmazonInstaller)
    scenario.publish_app(TARGET)
    scenario.installer.displayed_package = TARGET
    scenario.installer.user_clicks_install()
    scenario.system.run()
    assert scenario.system.pms.is_installed(TARGET)
