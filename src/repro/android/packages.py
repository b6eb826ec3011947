"""The installed-package database."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import PackageNotFound
from repro.android.apk import AndroidManifest
from repro.android.filesystem import FIRST_APP_UID
from repro.android.permissions import PermissionRegistry, PermissionState
from repro.android.signing import Certificate


@dataclass
class InstalledPackage:
    """One installed application as the PMS sees it."""

    package: str
    version_code: int
    certificate: Certificate
    manifest: AndroidManifest
    uid: int
    permissions: PermissionState
    is_system: bool = False
    installer_package: str = ""
    installed_ns: int = 0
    payload: bytes = b""

    @property
    def label(self) -> str:
        """User-visible app name."""
        return self.manifest.label

    def __repr__(self) -> str:
        kind = "system" if self.is_system else "user"
        return f"InstalledPackage({self.package!r} v{self.version_code}, {kind})"


class PackageDatabase:
    """Package-name keyed store with UID allocation."""

    def __init__(self, registry: PermissionRegistry) -> None:
        self._registry = registry
        self._packages: Dict[str, InstalledPackage] = {}
        self._next_uid = itertools.count(FIRST_APP_UID)

    def allocate_uid(self) -> int:
        """Hand out the next app UID."""
        return next(self._next_uid)

    def add(self, package: InstalledPackage) -> None:
        """Register a freshly installed (or updated) package."""
        self._packages[package.package] = package

    def remove(self, name: str) -> InstalledPackage:
        """Remove and return the package; raises if absent."""
        package = self._packages.pop(name, None)
        if package is None:
            raise PackageNotFound(name)
        return package

    def get(self, name: str) -> Optional[InstalledPackage]:
        """The package, or None if not installed."""
        return self._packages.get(name)

    def require(self, name: str) -> InstalledPackage:
        """The package; raises :class:`PackageNotFound` if absent."""
        package = self._packages.get(name)
        if package is None:
            raise PackageNotFound(name)
        return package

    def is_installed(self, name: str) -> bool:
        """True if ``name`` is installed."""
        return name in self._packages

    def all_packages(self) -> List[InstalledPackage]:
        """All installed packages, sorted by name."""
        return [self._packages[name] for name in sorted(self._packages)]

    def __len__(self) -> int:
        return len(self._packages)
