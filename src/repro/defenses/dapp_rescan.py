"""DAPP-RESCAN: hybrid online-notify + offline-rescan protection.

Plain DAPP trusts its FileObserver stream completely — and a bounded
notification queue makes that trust exploitable: a ``watcher-flood``
attacker overflows the queue so the ``CLOSE_WRITE`` marking download
completion (DAPP's cue to grab the genuine certificate) is simply
never delivered, and the swap's ``MOVED_TO`` drops into the same hole.

The change-detection literature's answer is the hybrid design: stay on
the cheap notification path while it is healthy, and fall back to
periodic *offline rescans* of the watched directories the moment the
queue reports loss (``Q_OVERFLOW``).  A rescan cannot see individual
events, but it can do something better: read the staged APKs directly
and reconcile them against the grabbed-signature table —

* a complete APK with no grabbed signature means a download finished
  inside a dropped window, so grab its certificate now;
* a staged APK whose certificate no longer matches the grabbed one
  means the file was replaced while the watcher was blind — alarm.

The detection guarantee is timing-based: every modeled installer waits
at least half its install delay (>= 50 ms across all profiles) between
download completion and the PMS read, while the degraded mode rescans
every :data:`DEFAULT_RESCAN_INTERVAL_NS` (25 ms).  The attacker must
leave the genuine APK intact until the store's integrity check passes,
so some rescan always captures the genuine certificate before the
swap — and then the ordinary install-time comparison convicts the
replacement.  The fuzz completeness oracle enforces exactly this:
``dapp-rescan`` must detect every hijack under ``watcher-flood``,
where plain ``dapp`` is expected to go blind.
"""

from __future__ import annotations

import posixpath
from typing import List, Optional

from repro.errors import AccessDenied, FilesystemError
from repro.android.apk import Apk, MalformedApk
from repro.android.filesystem import FileEvent, FileEventType
from repro.defenses.dapp import (
    DEFAULT_SUSPICION_WINDOW_NS,
    Dapp,
    _GrabbedSignature,
)
from repro.sim.clock import millis, seconds

#: Degraded-mode rescan cadence.  Must undercut the smallest
#: completion-to-swap window any installer profile forces on the
#: attacker (install_delay/2 >= 50 ms); 25 ms leaves 2x margin.
DEFAULT_RESCAN_INTERVAL_NS = millis(25)

#: How long one overflow keeps the offline scanner running.  Matches
#: the scenario's attacker arm budget: if the queue overflowed once
#: during an install, every later phase of that install is rescanned.
DEFAULT_RESCAN_WINDOW_NS = seconds(60)


class DappRescan(Dapp):
    """DAPP plus overflow-triggered offline rescans (hybrid detection)."""

    def __init__(self, watch_dirs: Optional[List[str]] = None,
                 suspicion_window_ns: int = DEFAULT_SUSPICION_WINDOW_NS,
                 rescan_interval_ns: int = DEFAULT_RESCAN_INTERVAL_NS,
                 rescan_window_ns: int = DEFAULT_RESCAN_WINDOW_NS) -> None:
        super().__init__(watch_dirs, suspicion_window_ns)
        self.report.defense_name = "DAPP-RESCAN"
        self.rescan_interval_ns = rescan_interval_ns
        self.rescan_window_ns = rescan_window_ns
        #: ``Q_OVERFLOW`` signals received (loss episodes noticed).
        self.overflows_seen = 0
        #: Offline rescans performed in degraded mode.
        self.rescans = 0
        self._rescan_deadline_ns = 0
        self._rescan_running = False

    # -- the notify path, plus the overflow trigger ------------------------------------

    def _on_file_event(self, event: FileEvent) -> None:
        if event.event_type is FileEventType.Q_OVERFLOW:
            self._on_overflow(event)
            return
        super()._on_file_event(event)

    def _on_overflow(self, event: FileEvent) -> None:
        """Events were lost: the stream is no longer trustworthy."""
        self.overflows_seen += 1
        obs = self.system.obs
        if obs.enabled:
            obs.event("defense/rescan_mode", event.time_ns,
                      defense=self.report.defense_name,
                      directory=event.directory,
                      overflows=self.overflows_seen)
        self._rescan_deadline_ns = self.system.now_ns + self.rescan_window_ns
        self._rescan()  # catch up immediately on whatever was missed
        if not self._rescan_running:
            self._rescan_running = True
            # A timer chain, not a spawned process: rescan mode starts
            # mid-run and a kernel/process span opening at overflow time
            # would partially overlap sibling spans in the trace.
            self.system.kernel.call_later(self.rescan_interval_ns,
                                          self._rescan_tick)

    # -- the offline path --------------------------------------------------------------

    def _rescan_tick(self) -> None:
        if self.system.now_ns >= self._rescan_deadline_ns:
            self._rescan_running = False
            return
        self._rescan()
        self.system.kernel.call_later(self.rescan_interval_ns,
                                      self._rescan_tick)

    def _rescan(self) -> None:
        """Reconcile the staged APKs on disk with the grabbed table."""
        self.rescans += 1
        now_ns = self.system.now_ns
        for directory in self.watch_dirs:
            try:
                names = self.system.fs.listdir(directory)
            except (AccessDenied, FilesystemError):
                continue
            for name in sorted(names):
                if not name.endswith(".apk"):
                    continue
                self._reconcile(posixpath.join(directory, name), now_ns)

    def _reconcile(self, path: str, now_ns: int) -> None:
        try:
            data = self.system.fs.read_bytes(path, self.caller, quiet=True)
            apk = Apk.from_bytes(data)
        except (AccessDenied, FilesystemError, MalformedApk):
            return  # partial download or unreadable: next rescan retries
        grabbed = self._grabbed.get(apk.package)
        if grabbed is None:
            # The completion event for this download was dropped.
            self._download_done_ns.setdefault(path, now_ns)
            self._grabbed[apk.package] = _GrabbedSignature(
                path=path,
                package=apk.package,
                certificate_fingerprint=apk.certificate.fingerprint,
                grabbed_ns=now_ns,
            )
        elif (path not in self._consumed_paths
              and apk.certificate.fingerprint != grabbed.certificate_fingerprint):
            self._flag(
                f"rescan after Q_OVERFLOW: {path} was re-signed while the "
                "watcher was blind (replacement attack)"
            )
