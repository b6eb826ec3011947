"""The redirect-Intent attack — AIT Step 1 (Section III-D).

A victim app (e.g. Facebook) sends an Intent redirecting the user to an
appstore page for a predictable app (e.g. Facebook Messenger).  The
malware polls ``/proc/<pid>/oom_adj`` — zero while a process owns the
foreground — and the instant the victim yields the foreground to the
store, fires its *own* Intent at the store, switching the displayed page
to a lookalike app before the user perceives the first page.  No fake
activity is drawn and no permission is needed; the store's own UI does
the phishing.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import AndroidError
from repro.android.intents import FLAG_ACTIVITY_SINGLE_TOP, Intent
from repro.android.proc import OOM_ADJ_FOREGROUND
from repro.attacks.base import MaliciousApp
from repro.core.ait import AITStep
from repro.core.outcomes import AttackResult
from repro.sim.clock import millis
from repro.sim.kernel import Sleep

DEFAULT_POLL_INTERVAL_NS = millis(20)


class RedirectIntentAttacker(MaliciousApp):
    """The oom_adj-polling UI redirector."""

    def __init__(self, victim_package: str, store_package: str,
                 lookalike_package: str,
                 poll_interval_ns: int = DEFAULT_POLL_INTERVAL_NS,
                 fire_delay_ns: int = 0,
                 package: Optional[str] = None) -> None:
        super().__init__(package=package)
        self.victim_package = victim_package
        self.store_package = store_package
        self.lookalike_package = lookalike_package
        self.poll_interval_ns = poll_interval_ns
        # Optional extra delay between detection and firing; the paper
        # notes the racing Intent must land 200-500 ms after the
        # legitimate one to replace the screen unnoticed.
        self.fire_delay_ns = fire_delay_ns
        self.fired_at_ns: Optional[int] = None
        self.delivery_allowed: Optional[bool] = None

    @property
    def fired(self) -> bool:
        """True once the racing Intent was sent."""
        return self.fired_at_ns is not None

    def arm(self, duration_ns: int):
        """Start the oom_adj poll loop; returns the spawned process."""
        return self.system.kernel.spawn(
            self._poll_loop(duration_ns), name="redirect-intent-poll"
        )

    def result(self) -> AttackResult:
        """Report: did the store end up displaying the lookalike?"""
        store_app = self.system.ams
        succeeded = False
        frame = store_app.top_frame()
        if frame is not None and frame.package == self.store_package:
            succeeded = (
                frame.intent.extras.get("show_package") == self.lookalike_package
            )
        return AttackResult(
            attack_name="redirect-intent",
            ait_step=AITStep.INVOCATION,
            succeeded=succeeded and bool(self.delivery_allowed),
            detail={
                "victim": self.victim_package,
                "lookalike": self.lookalike_package,
                "fired_at_ns": self.fired_at_ns,
            },
        )

    # -- poll loop -------------------------------------------------------------------

    def _poll_loop(self, duration_ns: int) -> Generator[Sleep, None, None]:
        deadline = self.system.now_ns + duration_ns
        while self.system.now_ns < deadline and not self.fired:
            if self._victim_left_foreground_to_store():
                if self.fire_delay_ns:
                    yield Sleep(self.fire_delay_ns)
                self._fire()
                return
            yield Sleep(self.poll_interval_ns)

    def _victim_left_foreground_to_store(self) -> bool:
        try:
            victim_adj = self.system.procfs.oom_adj_of(self.victim_package)
        except AndroidError:
            return False
        if victim_adj == OOM_ADJ_FOREGROUND:
            return False
        return self.system.procfs.foreground_package == self.store_package

    def _fire(self) -> None:
        intent = Intent(
            target_package=self.store_package,
            target_activity="AppDetailActivity",
            flags=FLAG_ACTIVITY_SINGLE_TOP,
        ).with_extra("show_package", self.lookalike_package)
        self.fired_at_ns = self.system.now_ns
        self.delivery_allowed = self.start_activity(intent)
