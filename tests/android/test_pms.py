"""Tests for the PackageManagerService."""

import pytest

from repro.errors import (
    InstallError,
    InstallSignatureError,
    InstallStorageError,
    InstallVerificationError,
    PackageNotFound,
    SecurityException,
)
from repro.android.apk import Apk, ApkBuilder, repackage
from repro.android.device import nexus5
from repro.android.permissions import (
    DELETE_PACKAGES,
    INSTALL_PACKAGES,
    READ_CONTACTS,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.pms import ACTION_PACKAGE_ADDED, ACTION_PACKAGE_REPLACED
from repro.android.signing import SigningKey
from repro.android.system import AndroidSystem

DEV = SigningKey("dev", "k1")
OTHER = SigningKey("other", "k2")


@pytest.fixture
def system():
    return AndroidSystem(nexus5())


def stage(system, apk, path="/sdcard/stage.apk"):
    system.fs.write_bytes(path, system.system_caller, apk.to_bytes())
    return path


def build(package="com.example.app", key=DEV, version=1, permissions=()):
    builder = ApkBuilder(package).version(version).payload(b"<code>")
    if permissions:
        builder.uses_permission(*permissions)
    return builder.build(key)


# -- install_package -----------------------------------------------------------


def test_silent_install_requires_permission(system):
    path = stage(system, build())
    unprivileged = system.caller_for
    apk = build("com.no.priv")
    system.install_user_app(apk)
    with pytest.raises(SecurityException):
        system.pms.install_package(path, system.caller_for("com.no.priv"))


def test_system_caller_installs(system):
    path = stage(system, build())
    package = system.pms.install_package(path, system.system_caller)
    assert system.pms.is_installed("com.example.app")
    assert package.version_code == 1


def test_install_reads_file_at_call_time(system):
    """Whatever bytes are staged at invocation get installed (the TOCTOU)."""
    path = stage(system, build())
    swapped = repackage(build(), SigningKey("evil", "k"), payload=b"<evil>")
    system.fs.write_bytes(path, system.system_caller, swapped.to_bytes())
    package = system.pms.install_package(path, system.system_caller)
    assert package.payload == b"<evil>"


def test_install_missing_file_fails(system):
    with pytest.raises(InstallError):
        system.pms.install_package("/sdcard/nope.apk", system.system_caller)


def test_install_garbage_file_fails(system):
    system.fs.write_bytes("/sdcard/junk.apk", system.system_caller, b"not an apk")
    with pytest.raises(InstallError):
        system.pms.install_package("/sdcard/junk.apk", system.system_caller)


def test_install_invalid_signature_fails(system):
    apk = build()
    forged = Apk(manifest=apk.manifest, payload=b"<tampered>", signature=apk.signature)
    path = stage(system, forged)
    with pytest.raises(InstallError):
        system.pms.install_package(path, system.system_caller)


def test_update_same_cert_succeeds(system):
    stage(system, build(version=1))
    system.pms.install_package("/sdcard/stage.apk", system.system_caller)
    stage(system, build(version=2))
    package = system.pms.install_package("/sdcard/stage.apk", system.system_caller)
    assert package.version_code == 2


def test_update_keeps_uid(system):
    stage(system, build(version=1))
    first = system.pms.install_package("/sdcard/stage.apk", system.system_caller)
    stage(system, build(version=2))
    second = system.pms.install_package("/sdcard/stage.apk", system.system_caller)
    assert first.uid == second.uid


def test_update_different_cert_rejected(system):
    stage(system, build(version=1, key=DEV))
    system.pms.install_package("/sdcard/stage.apk", system.system_caller)
    stage(system, build(version=2, key=OTHER))
    with pytest.raises(InstallSignatureError):
        system.pms.install_package("/sdcard/stage.apk", system.system_caller)


def test_insufficient_internal_storage(system):
    system.internal_volume.charge(system.internal_volume.free_bytes - 100)
    apk = ApkBuilder("com.big").payload_size(200).build(DEV)
    path = stage(system, apk)
    with pytest.raises(InstallStorageError):
        system.pms.install_package(path, system.system_caller)


# -- installPackageWithVerification -----------------------------------------------


def test_verification_accepts_matching_manifest(system):
    apk = build()
    path = stage(system, apk)
    system.pms.install_package_with_verification(
        path, system.system_caller, apk.manifest.checksum()
    )
    assert system.pms.is_installed(apk.package)


def test_verification_rejects_different_manifest(system):
    apk = build()
    path = stage(system, apk)
    other_checksum = build("com.other").manifest.checksum()
    with pytest.raises(InstallVerificationError):
        system.pms.install_package_with_verification(
            path, system.system_caller, other_checksum
        )


def test_verification_bypassed_by_repackaging(system):
    """The Step-4 flaw: same manifest, different payload, passes."""
    apk = build()
    twin = repackage(apk, SigningKey("evil", "k"), payload=b"<malware>")
    path = stage(system, twin)
    package = system.pms.install_package_with_verification(
        path, system.system_caller, apk.manifest.checksum()
    )
    assert package.payload == b"<malware>"


# -- permission granting -------------------------------------------------------------


def test_normal_and_dangerous_granted_at_install(system):
    apk = build(permissions=("android.permission.INTERNET",
                             WRITE_EXTERNAL_STORAGE))
    package = system.install_user_app(apk)
    assert package.permissions.has("android.permission.INTERNET")
    assert package.permissions.has(WRITE_EXTERNAL_STORAGE)


def test_signature_or_system_denied_to_ordinary_app(system):
    apk = build(permissions=(INSTALL_PACKAGES,))
    package = system.install_user_app(apk)
    assert not package.permissions.has(INSTALL_PACKAGES)


def test_signature_or_system_granted_to_platform_signed(system):
    apk = ApkBuilder("com.oem.tool").uses_permission(INSTALL_PACKAGES).build(
        system.platform_key
    )
    package = system.install_user_app(apk)
    assert package.permissions.has(INSTALL_PACKAGES)


def test_signature_or_system_granted_to_system_image_app(system):
    apk = build("com.carrier.bloat", key=OTHER, permissions=(INSTALL_PACKAGES,))
    package = system.install_system_app(apk)
    assert package.permissions.has(INSTALL_PACKAGES)


def test_undefined_permission_not_granted(system):
    apk = build(permissions=("com.hare.PERM",))
    package = system.install_user_app(apk)
    assert not package.permissions.has("com.hare.PERM")


def test_defining_app_registers_permission(system):
    apk = (
        ApkBuilder("com.definer")
        .defines_permission("com.definer.PERM", level="normal")
        .uses_permission("com.definer.PERM")
        .build(DEV)
    )
    package = system.install_user_app(apk)
    assert system.permission_registry.lookup("com.definer.PERM") is not None
    assert package.permissions.has("com.definer.PERM")


def test_signature_level_requires_matching_cert(system):
    definer = (
        ApkBuilder("com.definer")
        .defines_permission("com.definer.SIG", level="signature")
        .build(DEV)
    )
    system.install_user_app(definer)
    same_cert = build("com.friend", key=DEV, permissions=("com.definer.SIG",))
    other_cert = build("com.stranger", key=OTHER, permissions=("com.definer.SIG",))
    assert system.install_user_app(same_cert).permissions.has("com.definer.SIG")
    assert not system.install_user_app(other_cert).permissions.has("com.definer.SIG")


# -- uninstall -----------------------------------------------------------------------


def test_uninstall_requires_delete_packages(system):
    system.install_user_app(build())
    victim_caller = system.caller_for("com.example.app")
    with pytest.raises(SecurityException):
        system.pms.uninstall_package("com.example.app", victim_caller)


def test_uninstall_removes_package_and_definitions(system):
    apk = (
        ApkBuilder("com.definer")
        .defines_permission("com.definer.PERM", level="normal")
        .build(DEV)
    )
    system.install_user_app(apk)
    system.pms.uninstall_package("com.definer", system.system_caller)
    assert not system.pms.is_installed("com.definer")
    assert system.permission_registry.lookup("com.definer.PERM") is None


def test_uninstall_missing_package(system):
    with pytest.raises(PackageNotFound):
        system.pms.uninstall_package("com.ghost", system.system_caller)


# -- broadcasts and queries -------------------------------------------------------------


def test_package_added_broadcast(system):
    seen = []
    system.hub.subscribe(f"broadcast:{ACTION_PACKAGE_ADDED}", seen.append)
    system.install_user_app(build())
    system.run()
    assert len(seen) == 1
    assert seen[0].package == "com.example.app"


def test_package_replaced_broadcast_on_update(system):
    seen = []
    system.hub.subscribe(f"broadcast:{ACTION_PACKAGE_REPLACED}", seen.append)
    system.install_user_app(build(version=1))
    system.install_user_app(build(version=2))
    system.run()
    assert len(seen) == 1


def test_check_permission_api(system):
    system.install_user_app(build(permissions=(WRITE_EXTERNAL_STORAGE,)))
    assert system.pms.check_permission(WRITE_EXTERNAL_STORAGE, "com.example.app")
    assert not system.pms.check_permission(READ_CONTACTS, "com.example.app")
    assert not system.pms.check_permission(WRITE_EXTERNAL_STORAGE, "com.ghost")


def test_installed_signature(system):
    system.install_user_app(build())
    installed = system.pms.require_package("com.example.app")
    assert installed.certificate == DEV.certificate


def test_installed_copy_materialized(system):
    system.install_user_app(build())
    assert system.fs.exists("/data/app/com.example.app.apk")
    assert system.fs.exists("/data/data/com.example.app")
