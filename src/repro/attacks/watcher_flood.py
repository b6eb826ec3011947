"""The ``watcher-flood`` GIA variant: blind the watcher, then strike.

DAPP (Section V-B) hangs its whole defense off a FileObserver stream.
On a real device that stream is lossy: the inotify queue behind the
watch is bounded, and a flooded queue drops events wholesale, leaving
only an ``IN_Q_OVERFLOW`` marker.  An attacker who can write *anything*
to the watched directory — and on shared external storage every app
can — therefore controls the defender's queue: spam junk files fast
enough and the one event DAPP actually needs (the ``CLOSE_WRITE`` that
marks download completion, its cue to grab the genuine certificate)
falls into the dropped window.  The swap itself then rides the same
blind spot — the attacker fires it right after one of its own bursts,
so the tell-tale ``MOVED_TO`` is dropped too.

The strike logic is inherited from the wait-and-see attacker: poll for
EOCD completeness, pre-stage a repackaged twin, move it over the
target mid-install-window.  The flood only runs while a strike is
still pending (bounded by :data:`FLOOD_MAX_NS` per arm) and junk is
rewritten over a fixed set of names, so the event pressure is high but
the storage footprint is a few KiB.

Against a *lossless* watcher the flood is harmless noise and DAPP
detects the swap normally; against ``dapp-rescan`` the synthesized
``Q_OVERFLOW`` triggers the offline rescan that re-grabs the genuine
certificate.  Both directions are pinned by the fuzz corpus.
"""

from __future__ import annotations

import posixpath
from typing import Generator, Optional

from repro.errors import AccessDenied, FilesystemError
from repro.attacks.base import StoreFingerprint
from repro.attacks.wait_and_see import WaitAndSeeHijacker
from repro.sim.clock import millis, seconds
from repro.sim.kernel import Sleep

#: Flood cadence.  One junk burst per simulated millisecond keeps the
#: defender's queue refilled faster than any realistic drain interval
#: frees slots (the device default is one delivered event per 2 ms).
FLOOD_TICK_NS = millis(1)

#: Junk files rewritten per burst.  Each rewrite emits OPEN + MODIFY +
#: CLOSE_WRITE, so a burst is ~3x this many events — far above the
#: per-tick drain capacity and enough to fill any plausible queue
#: depth within a few ticks.
DEFAULT_FLOOD_BURST = 8

#: Per-arm cap on flooding without a landed strike; past this the
#: attacker degrades to plain wait-and-see polling so a stalled
#: install cannot turn the flood into a livelock.
FLOOD_MAX_NS = seconds(10)

#: Idle poll cadence once the strike for this arm cycle has resolved.
IDLE_POLL_INTERVAL_NS = millis(50)


class WatcherFloodHijacker(WaitAndSeeHijacker):
    """Wait-and-see strike wrapped in a watcher-blinding event flood."""

    def __init__(self, fingerprint: StoreFingerprint,
                 poll_interval_ns: int = FLOOD_TICK_NS,
                 package: Optional[str] = None,
                 flood_burst: int = DEFAULT_FLOOD_BURST) -> None:
        super().__init__(fingerprint, poll_interval_ns=poll_interval_ns,
                         package=package)
        self.flood_burst = flood_burst
        self._flood_denied = False
        self._strikes_at_arm = 0
        self._flood_deadline_ns = 0

    def arm(self, duration_ns: int):
        """Arm for one install: flood until this cycle's strike lands."""
        self._strikes_at_arm = len(self.swaps) + len(self.blocked)
        self._flood_deadline_ns = self.system.now_ns + min(
            duration_ns, FLOOD_MAX_NS)
        return super().arm(duration_ns)

    @property
    def flooding(self) -> bool:
        """True while this arm cycle still wants the watcher blind."""
        if self._flood_denied:
            return False
        if self.system.now_ns >= self._flood_deadline_ns:
            return False
        return len(self.swaps) + len(self.blocked) == self._strikes_at_arm

    def _poll_loop(self, duration_ns: int) -> Generator[Sleep, None, None]:
        deadline = self.system.now_ns + duration_ns
        while self.system.now_ns < deadline:
            flooding = self.flooding
            if flooding:
                self._flood_tick()
            self._scan()
            self._fire_due()
            yield Sleep(self.poll_interval_ns if flooding
                        else IDLE_POLL_INTERVAL_NS)

    def _flood_tick(self) -> None:
        """Rewrite the junk set once: pure event pressure, ~0 bytes."""
        directory = self.fingerprint.watch_dir
        fs = self.system.fs
        if not fs.exists(directory):
            return
        for index in range(self.flood_burst):
            name = f".flood-{index:02d}"
            try:
                self.write_file(posixpath.join(directory, name), b"\0" * 16)
            except (AccessDenied, FilesystemError):
                # Private staging dir (a secure installer): nothing to
                # flood, and the strike will be blocked anyway.
                self._flood_denied = True
                return
