"""Suggestion 1: choose the staging storage by available space.

Installing through internal storage needs roughly **twice** the APK's
size — the staged copy plus the installed copy — which is why low-end
devices push third-party stores onto the SD-Card (Section II: the
1.6 GB Gabriel Knight download cannot install internally on a Galaxy J5
with 2.5 GB free).  The chooser encodes exactly that arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.android.storage import StorageVolume


class StorageChoice(enum.Enum):
    """Where to stage the APK."""

    INTERNAL = "internal"
    EXTERNAL = "external"


# Safety margin so an install never runs the device to zero bytes.
DEFAULT_HEADROOM_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class StorageDecision:
    """The chooser's verdict plus its arithmetic, for logging."""

    choice: StorageChoice
    apk_size_bytes: int
    required_internal_bytes: int
    free_internal_bytes: int


def choose_storage(internal: StorageVolume, apk_size_bytes: int,
                   headroom_bytes: int = DEFAULT_HEADROOM_BYTES) -> StorageDecision:
    """Pick internal storage iff 2x the APK plus headroom fits.

    Returns a :class:`StorageDecision`; callers staging externally are
    expected to pair it with the Section V self-defense (see
    :class:`~repro.toolkit.secure_installer.ToolkitInstaller`).
    """
    required = 2 * apk_size_bytes + headroom_bytes
    if internal.free_bytes >= required:
        choice = StorageChoice.INTERNAL
    else:
        choice = StorageChoice.EXTERNAL
    return StorageDecision(
        choice=choice,
        apk_size_bytes=apk_size_bytes,
        required_internal_bytes=required,
        free_internal_bytes=internal.free_bytes,
    )
