"""Device profiles: the hardware/firmware context of one simulated phone.

Profiles capture what the paper's measurement study showed matters:
vendor (hence platform key), carrier (hence which bloatware installers
are pre-installed), Android version (hence the Download Manager's
symlink behaviour and the runtime-permission model), and internal
storage size (hence whether internal-storage installs are viable —
the low-end-device pressure of Section II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.android.download_manager import SymlinkMode
from repro.android.storage import GB
from repro.sim.events import WatchLimits


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a device model + firmware build."""

    vendor: str
    model: str
    carrier: str = "unlocked"
    android_version: str = "5.1"
    internal_capacity_bytes: int = 16 * GB
    internal_used_bytes: int = 6 * GB
    external_capacity_bytes: int = 32 * GB
    region: str = "US"
    #: Firmware-level inotify loss model applied to every FileObserver
    #: on the device (``None`` = lossless, the historical behaviour).
    watch_limits: Optional[WatchLimits] = None

    @property
    def dm_symlink_mode(self) -> SymlinkMode:
        """How this build's Download Manager treats symlinked paths."""
        if self._version_tuple() >= (6, 0):
            return SymlinkMode.CHECK_THEN_USE
        return SymlinkMode.LEXICAL

    @property
    def free_internal_bytes(self) -> int:
        """Internal space available at first boot."""
        return self.internal_capacity_bytes - self.internal_used_bytes

    def _version_tuple(self) -> Tuple[int, int]:
        parts = self.android_version.split(".")
        major = int(parts[0])
        minor = int(parts[1]) if len(parts) > 1 else 0
        return (major, minor)


def galaxy_s6_edge_verizon() -> DeviceProfile:
    """The paper's DTIgnite testbed: Galaxy S6 Edge on Verizon."""
    return DeviceProfile(
        vendor="samsung",
        model="SM-G925V",
        carrier="verizon",
        android_version="5.1",
        internal_capacity_bytes=32 * GB,
        internal_used_bytes=12 * GB,
    )


def galaxy_j5_lowend() -> DeviceProfile:
    """A low-end 8 GB device with ~2.5 GB free — Section II's example."""
    return DeviceProfile(
        vendor="samsung",
        model="SM-J500",
        carrier="unlocked",
        android_version="5.1",
        internal_capacity_bytes=8 * GB,
        internal_used_bytes=8 * GB - int(2.5 * GB),
    )


def nexus5() -> DeviceProfile:
    """The paper's defense-evaluation device (Android 5.1)."""
    return DeviceProfile(
        vendor="google",
        model="Nexus 5",
        android_version="5.1",
        internal_capacity_bytes=16 * GB,
        internal_used_bytes=5 * GB,
    )


def nexus5_marshmallow() -> DeviceProfile:
    """Nexus 5 on Android 6.0: runtime permissions + re-checking DM."""
    return DeviceProfile(
        vendor="google",
        model="Nexus 5",
        android_version="6.0",
        internal_capacity_bytes=16 * GB,
        internal_used_bytes=5 * GB,
    )


def xiaomi_mi4() -> DeviceProfile:
    """A Xiaomi device shipping the Xiaomi appstore."""
    return DeviceProfile(
        vendor="xiaomi",
        model="MI 4",
        carrier="china-mobile",
        android_version="4.4",
        internal_capacity_bytes=16 * GB,
        internal_used_bytes=7 * GB,
        region="CN",
    )


def galaxy_s2_ics() -> DeviceProfile:
    """An Ice-Cream-Sandwich device (Android 4.0.3): logcat still open.

    The baseline logcat attack (Related Work [14]) only works on builds
    like this one, where third-party apps may hold READ_LOGS.
    """
    return DeviceProfile(
        vendor="samsung",
        model="GT-I9100",
        carrier="unlocked",
        android_version="4.0.3",
        internal_capacity_bytes=16 * GB,
        internal_used_bytes=8 * GB,
    )


def galaxy_note3() -> DeviceProfile:
    """The paper's Hare-attack testbed (S-Voice / Link permissions)."""
    return DeviceProfile(
        vendor="samsung",
        model="SM-N900",
        carrier="tmobile",
        android_version="4.4",
        internal_capacity_bytes=32 * GB,
        internal_used_bytes=14 * GB,
    )
