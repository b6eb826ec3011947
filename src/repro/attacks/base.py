"""Common attacker machinery: the malicious app and store fingerprints.

The adversary model is the paper's (Section III-A): a malicious app on
the device whose only sensitive privilege is SD-Card access — and even
that can be acquired *silently* thanks to the STORAGE permission-group
auto-grant (:meth:`MaliciousApp.acquire_sdcard_permission_silently`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.android.apk import Apk, ApkBuilder, repackage
from repro.android.app import App
from repro.android.permissions import (
    READ_EXTERNAL_STORAGE,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.signing import SigningKey
from repro.sim.clock import millis

ATTACKER_PACKAGE = "com.fun.flashlight"
ATTACKER_PAYLOAD = b"<GIA malicious payload>"


@dataclass(frozen=True)
class StoreFingerprint:
    """What the attacker learned by pre-analyzing one installer.

    - ``close_nowrite_count``: how many ``CLOSE_NOWRITE`` events the
      store's integrity check produces after the download completes
      (7 for Amazon, 1 for Xiaomi, 2 for Baidu, 3 for Qihoo360);
      **0** means the store performs no check at all and the swap
      should happen the instant the download lands,
    - ``wait_and_see_delay_ns``: how long after download completion the
      timing-only attacker should replace the file (500 ms for
      Amazon/Baidu, 2 s for DTIgnite),
    - ``rename_signals_completion``: Xiaomi's tmp-name rename cue.
    """

    watch_dir: str
    close_nowrite_count: int
    wait_and_see_delay_ns: int = millis(500)
    rename_signals_completion: bool = False


def fingerprint_for(installer_cls: type) -> StoreFingerprint:
    """Derive the attack fingerprint from an installer's profile.

    Stands in for the paper's "analyze the target appstore beforehand,
    figuring out its access pattern": the profile *is* the published
    behaviour, and the fingerprint reads only attacker-observable
    fields (directory, read count, timing).
    """
    profile = installer_cls.profile
    check_ends_ns = (
        profile.verify_start_delay_ns
        + max(0, profile.verify_reads - 1) * profile.per_read_ns
    )
    window_middle = check_ends_ns + profile.install_delay_ns // 2
    if profile.verify_hash:
        count = max(1, profile.verify_reads)
    else:
        # No integrity check: strike at download completion.  (For PIA
        # stores, waiting for the dialog's read also works, but the
        # earliest reliable moment is the CLOSE_WRITE itself.)
        count = 0
    return StoreFingerprint(
        watch_dir=profile.download_dir or "/sdcard/Download",
        close_nowrite_count=count,
        wait_and_see_delay_ns=window_middle,
        rename_signals_completion=profile.rename_on_complete,
    )


class MaliciousApp(App):
    """The attacker's foothold app."""

    package = ATTACKER_PACKAGE

    def __init__(self, package: Optional[str] = None) -> None:
        super().__init__(package=package)
        self.key = SigningKey("gia-attacker", "key0")
        self._armed_ns: Optional[int] = None

    # -- observability ---------------------------------------------------------

    def note_armed(self) -> None:
        """Record the arm instant (the strike window opens here)."""
        self._armed_ns = self.system.now_ns
        obs = self.system.obs
        if obs.enabled:
            obs.event("attack/arm", self._armed_ns,
                      attack=type(self).__name__)

    def note_strike(self, path: str, blocked: bool = False,
                    reason: str = "") -> None:
        """Record a strike attempt and the arm->strike window span."""
        obs = self.system.obs
        now_ns = self.system.now_ns
        if obs.enabled:
            obs.event("attack/strike", now_ns, attack=type(self).__name__,
                      path=path, blocked=blocked, reason=reason)
            if self._armed_ns is not None:
                obs.span("attack/window", self._armed_ns, now_ns,
                         attack=type(self).__name__, path=path,
                         blocked=blocked)

    @staticmethod
    def build_apk(package: str = ATTACKER_PACKAGE) -> Apk:
        """The attacker app's own APK: innocuous-looking, STORAGE perms."""
        key = SigningKey("gia-attacker", "key0")
        return (
            ApkBuilder(package)
            .label("Fun Flashlight")
            .uses_permission(READ_EXTERNAL_STORAGE, WRITE_EXTERNAL_STORAGE)
            .payload(b"<flashlight code>" + ATTACKER_PAYLOAD)
            .build(key)
        )

    def acquire_sdcard_permission_silently(self) -> bool:
        """The Section III-A permission-group trick.

        The user granted READ_EXTERNAL_STORAGE for a 'legitimate'
        feature; WRITE_EXTERNAL_STORAGE then arrives silently because it
        shares the STORAGE group.  Returns True if the write permission
        is held afterwards without any user dialog.
        """
        state = self.system.pms.require_package(self.package).permissions
        if not state.has(READ_EXTERNAL_STORAGE):
            state.request(READ_EXTERNAL_STORAGE, user_approves=True)
        silent = state.request_is_silent(WRITE_EXTERNAL_STORAGE)
        granted = state.request(WRITE_EXTERNAL_STORAGE, user_approves=False)
        return granted and silent

    def forge_replacement(self, genuine_bytes: bytes) -> Apk:
        """Repackage the genuine APK: same manifest, attacker payload.

        Keeping the manifest (and with it label + icon) defeats manifest
        checksums, the PIA dialog, and installPackageWithVerification.
        """
        genuine = Apk.from_bytes(genuine_bytes)
        return repackage(genuine, self.key, payload=ATTACKER_PAYLOAD)
