"""Tests for the App base class, device profiles and the system facade."""

import pytest

from repro.errors import AndroidError, PackageNotFound
from repro.android import device
from repro.android.apk import ApkBuilder
from repro.android.app import App
from repro.android.download_manager import SymlinkMode
from repro.android.intents import Intent
from repro.android.permissions import (
    READ_EXTERNAL_STORAGE,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.signing import SigningKey
from repro.android.system import AndroidSystem

DEV = SigningKey("dev", "k")


class EchoApp(App):
    package = "com.echo"

    def __init__(self):
        super().__init__()
        self.received = []

    def handle_intent(self, intent):
        self.received.append(intent)


def install_echo(system):
    apk = (
        ApkBuilder("com.echo")
        .uses_permission(READ_EXTERNAL_STORAGE, WRITE_EXTERNAL_STORAGE)
        .build(DEV)
    )
    system.install_user_app(apk)
    app = EchoApp()
    system.attach(app)
    return app


# -- App ------------------------------------------------------------------------


def test_app_requires_package_name():
    class Anonymous(App):
        package = ""

    with pytest.raises(AndroidError):
        Anonymous()


def test_attach_requires_installation(system):
    with pytest.raises(PackageNotFound):
        system.attach(EchoApp())


def test_caller_reflects_granted_permissions(system):
    app = install_echo(system)
    assert app.caller.has_permission(WRITE_EXTERNAL_STORAGE)
    assert app.caller.uid == app.uid


def test_caller_snapshot_updates_after_new_grant(system):
    app = install_echo(system)
    state = system.pms.require_package("com.echo").permissions
    state.grant("android.permission.READ_CONTACTS")
    assert app.caller.has_permission("android.permission.READ_CONTACTS")


def test_file_helpers_operate_as_app(system):
    app = install_echo(system)
    app.make_dirs("/sdcard/echo")
    app.write_file("/sdcard/echo/f", b"hello")
    assert app.read_file("/sdcard/echo/f") == b"hello"
    app.move_file("/sdcard/echo/f", "/sdcard/echo/g")
    app.delete_file("/sdcard/echo/g")


def test_set_world_readable_adds_bit(system):
    app = install_echo(system)
    path = f"{app.private_dir}/staged.apk"
    app.write_file(path, b"apk")
    app.set_world_readable(path)
    assert system.fs.stat(path).mode & 0o004


def test_intent_round_trip_between_apps(system):
    app = install_echo(system)
    other_apk = ApkBuilder("com.other").build(DEV)
    system.install_user_app(other_apk)

    class OtherApp(App):
        package = "com.other"

    other = OtherApp()
    system.attach(other)
    other.start_activity(Intent(target_package="com.echo"))
    system.run()
    assert len(app.received) == 1


def test_request_permission_group_trick(system):
    apk = ApkBuilder("com.sneaky").uses_permission(READ_EXTERNAL_STORAGE).build(DEV)
    system.install_user_app(apk)

    class Sneaky(App):
        package = "com.sneaky"

    app = Sneaky()
    system.attach(app)
    # WRITE arrives silently because READ (same group) is already held.
    permissions = system.pms.require_package(app.package).permissions
    assert permissions.request(WRITE_EXTERNAL_STORAGE, user_approves=False)


# -- DeviceProfile -----------------------------------------------------------------


def test_dm_mode_by_version():
    assert device.xiaomi_mi4().dm_symlink_mode is SymlinkMode.LEXICAL
    assert device.nexus5_marshmallow().dm_symlink_mode is SymlinkMode.CHECK_THEN_USE


def test_low_end_device_has_little_free_space():
    profile = device.galaxy_j5_lowend()
    assert profile.free_internal_bytes <= 3 * 1024 ** 3


def test_profiles_have_vendors():
    assert device.galaxy_s6_edge_verizon().vendor == "samsung"
    assert device.galaxy_s6_edge_verizon().carrier == "verizon"
    assert device.galaxy_note3().vendor == "samsung"


# -- AndroidSystem ------------------------------------------------------------------


def test_system_mounts_storage(system):
    assert system.fs.exists("/sdcard")
    assert system.fs.exists("/data/data")
    assert system.fs.exists("/data/app")


def test_system_platform_key_matches_vendor(system):
    assert system.platform_key.owner == system.profile.vendor
    assert system.pms.platform_certificate == system.platform_key.certificate


def test_install_system_app_flagged(system):
    apk = ApkBuilder("com.sys").build(DEV)
    package = system.install_system_app(apk)
    assert package.is_system


def test_caller_for_unknown_package(system):
    with pytest.raises(PackageNotFound):
        system.caller_for("com.ghost")


def test_internal_volume_reflects_profile():
    profile = device.galaxy_j5_lowend()
    system = AndroidSystem(profile)
    # Allow a small delta for boot-time system files (the DM database).
    assert 0 <= profile.free_internal_bytes - system.internal_volume.free_bytes < 4096


def test_repr(system):
    assert "Nexus 5" in repr(system)
