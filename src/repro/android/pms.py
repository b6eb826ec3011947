"""PackageManagerService (PMS): the privileged end of every AIT.

Implements the two install entry points the paper analyzes:

- :meth:`PackageManagerService.install_package` — the silent path,
  callable only by holders of ``INSTALL_PACKAGES``
  (``signatureOrSystem``); this is what appstore system apps and
  DTIgnite invoke (AIT Step 4),
- :meth:`PackageManagerService.install_package_with_verification` — the
  hidden API that additionally verifies a checksum of the APK's
  **AndroidManifest.xml only**.  That design decision is the Step-4
  vulnerability: a repackaged APK carrying the original manifest passes
  (Section III-B).

Permission granting reproduces the Section II rules: ``signature`` /
``signatureOrSystem`` permissions are granted only to platform-key
signed or system-image packages; permission *definitions* are
first-definer-wins, which is what makes Hare grabbing possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import (
    InstallError,
    InstallSignatureError,
    InstallStorageError,
    InstallVerificationError,
    SecurityException,
)
from repro.android.apk import Apk, MalformedApk
from repro.android.filesystem import Caller, Filesystem, SYSTEM_UID
from repro.android.packages import InstalledPackage, PackageDatabase
from repro.android.permissions import (
    DELETE_PACKAGES,
    INSTALL_PACKAGES,
    PermissionRegistry,
    PermissionState,
    ProtectionLevel,
)
from repro.android.signing import Certificate
from repro.android.storage import StorageLayout, StorageVolume
from repro.sim.events import EventHub

ACTION_PACKAGE_ADDED = "android.intent.action.PACKAGE_ADDED"
ACTION_PACKAGE_REPLACED = "android.intent.action.PACKAGE_REPLACED"
ACTION_PACKAGE_REMOVED = "android.intent.action.PACKAGE_REMOVED"
ACTION_PACKAGE_INSTALL = "android.intent.action.PACKAGE_INSTALL"


@dataclass(frozen=True)
class PackageBroadcast:
    """Payload of a PACKAGE_* broadcast."""

    action: str
    package: str
    version_code: int
    installer: str
    time_ns: int


class PackageManagerService:
    """The device's package manager."""

    def __init__(self, fs: Filesystem, hub: EventHub, database: PackageDatabase,
                 registry: PermissionRegistry, layout: StorageLayout,
                 internal_volume: StorageVolume,
                 platform_certificate: Certificate) -> None:
        self._fs = fs
        self._hub = hub
        self._db = database
        self._registry = registry
        self._layout = layout
        self._internal = internal_volume
        self.platform_certificate = platform_certificate
        # The PMS reads staged APKs with SYSTEM_UID but *without* the
        # is_system bypass: app-private files must be world-readable
        # for this caller to read them (the paper's Section II insight).
        self._reader = Caller(
            uid=SYSTEM_UID,
            package="com.android.server.pm",
            permissions=frozenset(
                {"android.permission.READ_EXTERNAL_STORAGE"}
            ),
        )
        self._system_writer = Caller(uid=SYSTEM_UID, package="android", is_system=True)
        self.install_log: List[PackageBroadcast] = []

    # -- public API -----------------------------------------------------------

    def install_package(self, apk_path: str, caller: Caller,
                        installer_package: str = "",
                        as_system_app: bool = False) -> InstalledPackage:
        """Silently install the APK staged at ``apk_path``.

        Requires the caller to hold ``INSTALL_PACKAGES`` (or be the
        system itself).  Reads the file *at call time* — whatever bytes
        are on storage now are what gets installed, which is exactly
        what the TOCTOU attacker exploits.
        """
        self._require(caller, INSTALL_PACKAGES, "installPackage")
        apk = self._read_apk(apk_path)
        return self._commit(apk, installer_package or caller.package, as_system_app)

    def install_package_with_verification(self, apk_path: str, caller: Caller,
                                          manifest_checksum: str,
                                          installer_package: str = "") -> InstalledPackage:
        """The hidden verification API: checks the **manifest** checksum only.

        Raises :class:`InstallVerificationError` when the staged file's
        manifest checksum differs from ``manifest_checksum``.  Note what
        it does *not* check: the payload, or the signer — hence the
        repackaging bypass.
        """
        self._require(caller, INSTALL_PACKAGES, "installPackageWithVerification")
        apk = self._read_apk(apk_path)
        if apk.manifest.checksum() != manifest_checksum:
            raise InstallVerificationError(
                f"manifest checksum mismatch for {apk.package}"
            )
        return self._commit(apk, installer_package or caller.package, False)

    def install_parsed(self, apk: Apk, installer_package: str,
                       as_system_app: bool = False) -> InstalledPackage:
        """Install an already-parsed APK (used by the PIA and provisioning)."""
        return self._commit(apk, installer_package, as_system_app)

    def uninstall_package(self, name: str, caller: Caller) -> None:
        """Silently remove an installed package (needs ``DELETE_PACKAGES``)."""
        self._require(caller, DELETE_PACKAGES, "deletePackage")
        package = self._db.remove(name)
        self._registry.undefine_all_by(name)
        installed_path = f"{self._layout.app_install_root}/{name}.apk"
        if self._fs.exists(installed_path):
            self._fs.unlink(installed_path, self._system_writer)
        self._broadcast(ACTION_PACKAGE_REMOVED, package, caller.package)

    def get_package(self, name: str) -> Optional[InstalledPackage]:
        """Installed package info, or None."""
        return self._db.get(name)

    def require_package(self, name: str) -> InstalledPackage:
        """Installed package info; raises if absent."""
        return self._db.require(name)

    def is_installed(self, name: str) -> bool:
        """True if ``name`` is installed."""
        return self._db.is_installed(name)

    def check_permission(self, permission: str, package: str) -> bool:
        """Android's ``checkPermission``: does ``package`` hold ``permission``?"""
        installed = self._db.get(package)
        return installed is not None and installed.permissions.has(permission)

    def parse_apk_file(self, apk_path: str) -> Apk:
        """Read and parse the APK at ``apk_path`` as the PMS reader."""
        return self._read_apk(apk_path)

    # -- install pipeline ------------------------------------------------------

    def _read_apk(self, apk_path: str) -> Apk:
        try:
            data = self._fs.read_bytes(apk_path, self._reader)
        except Exception as exc:
            raise InstallError(f"cannot read staged APK {apk_path}: {exc}") from exc
        try:
            return Apk.from_bytes(data)
        except MalformedApk as exc:
            raise InstallError(f"invalid APK at {apk_path}: {exc}") from exc

    def _commit(self, apk: Apk, installer_package: str,
                as_system_app: bool) -> InstalledPackage:
        if not apk.verify_signature():
            raise InstallError(f"APK signature invalid for {apk.package}")
        existing = self._db.get(apk.package)
        replacing = existing is not None
        if existing is not None:
            if existing.certificate != apk.certificate:
                raise InstallSignatureError(
                    f"certificate mismatch updating {apk.package}"
                )
            uid = existing.uid
            permissions = existing.permissions
            as_system_app = as_system_app or existing.is_system
        else:
            if not self._internal.can_fit(len(apk.payload)):
                raise InstallStorageError(
                    f"not enough internal storage for {apk.package}"
                )
            uid = self._db.allocate_uid()
            permissions = PermissionState(self._registry)
        # Permission definitions land first (first-definer-wins), then
        # grants are evaluated — the ordering Hare grabbing relies on.
        for spec in apk.manifest.defines_permissions:
            self._registry.define(spec.to_definition(apk.package))
        self._grant_permissions(apk, permissions, as_system_app)
        package = InstalledPackage(
            package=apk.package,
            version_code=apk.version_code,
            certificate=apk.certificate,
            manifest=apk.manifest,
            uid=uid,
            permissions=permissions,
            is_system=as_system_app,
            installer_package=installer_package,
            installed_ns=self._fs.now_ns,
            payload=apk.payload,
        )
        self._materialize(package, apk)
        self._db.add(package)
        action = ACTION_PACKAGE_REPLACED if replacing else ACTION_PACKAGE_ADDED
        self._broadcast(action, package, installer_package)
        return package

    def _grant_permissions(self, apk: Apk, permissions: PermissionState,
                           as_system_app: bool) -> None:
        platform_signed = apk.certificate == self.platform_certificate
        for name in apk.manifest.uses_permissions:
            definition = self._registry.lookup(name)
            if definition is None:
                continue  # a Hare: stays ungranted until someone defines it
            if definition.level is ProtectionLevel.NORMAL:
                permissions.grant(name)
            elif definition.level is ProtectionLevel.DANGEROUS:
                # Install-time grant (pre-Android-6 model). Devices with
                # the runtime model leave these to PermissionState.request.
                permissions.grant(name)
            elif definition.level is ProtectionLevel.SIGNATURE:
                definer = self._db.get(definition.defined_by)
                definer_cert = (
                    definer.certificate if definer is not None
                    else self.platform_certificate
                )
                if apk.certificate == definer_cert:
                    permissions.grant(name)
            elif definition.level is ProtectionLevel.SIGNATURE_OR_SYSTEM:
                if platform_signed or as_system_app:
                    permissions.grant(name)

    def _materialize(self, package: InstalledPackage, apk: Apk) -> None:
        """Create the installed copy under /data/app and the app sandbox."""
        installed_path = f"{self._layout.app_install_root}/{package.package}.apk"
        if self._fs.exists(installed_path):
            self._fs.unlink(installed_path, self._system_writer)
        self._fs.write_bytes(installed_path, self._system_writer, apk.to_bytes())
        sandbox = self._layout.app_private_dir(package.package)
        if not self._fs.exists(sandbox):
            self._fs.makedirs(sandbox, self._system_writer, mode=0o700)
            self._fs.chown(sandbox, package.uid, self._system_writer)

    def _broadcast(self, action: str, package: InstalledPackage, installer: str) -> None:
        broadcast = PackageBroadcast(
            action=action,
            package=package.package,
            version_code=package.version_code,
            installer=installer,
            time_ns=self._fs.now_ns,
        )
        self.install_log.append(broadcast)
        self._hub.publish(f"broadcast:{action}", broadcast)
        if action in (ACTION_PACKAGE_ADDED, ACTION_PACKAGE_REPLACED):
            self._hub.publish(f"broadcast:{ACTION_PACKAGE_INSTALL}", broadcast)

    def _require(self, caller: Caller, permission: str, api: str) -> None:
        if caller.is_system or caller.has_permission(permission):
            return
        raise SecurityException(
            f"{api} requires {permission}; caller {caller.package!r} lacks it"
        )
