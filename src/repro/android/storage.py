"""Storage volumes and the internal-storage access policy.

Section II of the paper explains *why* installers use the SD-Card:
installing through internal storage needs roughly twice the app's size
(the staged APK plus the installed copy), which fails on low-end
devices.  :class:`StorageVolume` does that space accounting, and
:class:`InternalStoragePolicy` enforces the app-sandbox rule that makes
internal staging awkward in the first place — the staged APK must be
made world-readable before the PackageManager can read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AccessDenied
from repro.android.filesystem import (
    AccessPolicy,
    Caller,
    Filesystem,
    Inode,
    ROOT_UID,
)

MB = 1024 * 1024
GB = 1024 * MB


class StorageVolume:
    """A fixed-capacity storage device with byte-level accounting."""

    def __init__(self, name: str, capacity_bytes: int, used_bytes: int = 0) -> None:
        if used_bytes > capacity_bytes:
            raise ValueError("volume cannot start over capacity")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.used_bytes = used_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available on the volume."""
        return self.capacity_bytes - self.used_bytes

    def charge(self, delta_bytes: int) -> bool:
        """Reserve (or release, if negative) ``delta_bytes``.

        Returns False when the volume cannot hold the growth, in which
        case the filesystem raises ``StorageFull`` — the failure mode
        that pushes installers onto the SD-Card.
        """
        if delta_bytes > self.free_bytes:
            return False
        self.used_bytes = max(0, self.used_bytes + delta_bytes)
        return True

    def can_fit(self, size_bytes: int) -> bool:
        """True if a file of ``size_bytes`` fits right now."""
        return size_bytes <= self.free_bytes

    def __repr__(self) -> str:
        return (
            f"StorageVolume({self.name!r}, used={self.used_bytes}/"
            f"{self.capacity_bytes})"
        )


@dataclass(frozen=True)
class StorageLayout:
    """Mount points used by every simulated device."""

    internal_root: str = "/data"
    app_data_root: str = "/data/data"
    app_install_root: str = "/data/app"
    external_root: str = "/sdcard"

    def app_private_dir(self, package: str) -> str:
        """Private data directory of ``package`` on internal storage."""
        return f"{self.app_data_root}/{package}"


class InternalStoragePolicy(AccessPolicy):
    """App-sandbox DAC for /data.

    - Each app owns ``/data/data/<package>``; only the owner UID and
      system principals may read or write inside it, *unless* a file has
      been made world-readable (mode o+r) — the exact loophole ordinary
      developers hit when staging APKs for the PackageManager
      (Section II, "Understanding SD-Card usage of ordinary developers").
    - ``/data/app`` and other system areas are system-only.
    """

    def __init__(self, layout: StorageLayout) -> None:
        self._layout = layout

    def check_read(self, fs: Filesystem, caller: Caller, path: str,
                   inode: Optional[Inode]) -> None:
        if self._is_privileged(caller):
            return
        owner = self._sandbox_owner(path, fs)
        if owner is None:
            raise AccessDenied(path, "internal storage is system-only")
        if caller.uid == owner:
            return
        if inode is not None and inode.world_readable():
            return
        raise AccessDenied(path, "file is private to another app")

    def check_write(self, fs: Filesystem, caller: Caller, path: str,
                    inode: Optional[Inode]) -> None:
        self._check_mutate(fs, caller, path)

    def check_create(self, fs: Filesystem, caller: Caller, path: str) -> None:
        self._check_mutate(fs, caller, path)

    def check_delete(self, fs: Filesystem, caller: Caller, path: str,
                     inode: Optional[Inode]) -> None:
        self._check_mutate(fs, caller, path)

    def check_rename(self, fs: Filesystem, caller: Caller, src: str, dst: str) -> None:
        self._check_mutate(fs, caller, src)

    def _check_mutate(self, fs: Filesystem, caller: Caller, path: str) -> None:
        if self._is_privileged(caller):
            return
        owner = self._sandbox_owner(path, fs)
        if owner is None or caller.uid != owner:
            raise AccessDenied(path, "cannot modify another app's private storage")

    def _is_privileged(self, caller: Caller) -> bool:
        # Note: a caller with uid == SYSTEM_UID but is_system=False is NOT
        # privileged here.  The PackageManagerService reads staged APKs
        # through such a caller, reproducing the paper's observation that
        # an APK staged in an app's private directory must be made
        # world-readable before the PMS can read it (Section II).
        return caller.is_system or caller.uid == ROOT_UID

    def _sandbox_owner(self, path: str, fs: Filesystem) -> Optional[int]:
        """UID owning the app sandbox that contains ``path``, if any."""
        prefix = self._layout.app_data_root + "/"
        if not path.startswith(prefix):
            return None
        package = path[len(prefix):].split("/", 1)[0]
        sandbox = f"{self._layout.app_data_root}/{package}"
        try:
            return fs.stat(sandbox).owner_uid
        except Exception:
            return None
