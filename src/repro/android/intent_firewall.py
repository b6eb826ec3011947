"""The IntentFirewall: where every startActivity Intent is inspected.

Stock behaviour is pass-through with a record of what went by.  The
paper's two Step-1 defenses install themselves here:

- the redirect-Intent *detector* registers an inspector that compares
  consecutive Intents to the same recipient (Section V-C,
  "Redirect Intent attack detection"),
- the *origin scheme* registers an inspector that stamps the sender's
  package name into the Intent's hidden ``mIntentOrigin`` field.

Inspectors run inside ``check_intent`` in registration order; any
inspector may veto delivery or raise an alarm without vetoing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.android.intents import Intent


@dataclass(frozen=True)
class IntentRecord:
    """What the firewall knows about one in-flight Intent (class IR)."""

    intent: Intent
    sender_package: str
    sender_uid: int
    sender_is_system: bool
    recipient_package: str
    delivery_time_ns: int


@dataclass
class InspectionResult:
    """Outcome of one inspector on one Intent."""

    allow: bool = True
    alarm: Optional[str] = None


Inspector = Callable[[IntentRecord], InspectionResult]


class IntentFirewall:
    """Inspection pipeline for activity-start Intents."""

    def __init__(self) -> None:
        self._inspectors: List[Inspector] = []
        self.records: List[IntentRecord] = []
        self.alarms: List[str] = []
        self.blocked: List[IntentRecord] = []

    def add_inspector(self, inspector: Inspector) -> None:
        """Install a defense inspector (runs on every Intent)."""
        self._inspectors.append(inspector)

    def check_intent(self, record: IntentRecord) -> bool:
        """Run all inspectors; returns False if delivery must be blocked."""
        self.records.append(record)
        allowed = True
        for inspector in self._inspectors:
            result = inspector(record)
            if result.alarm is not None:
                self.alarms.append(result.alarm)
            if not result.allow:
                allowed = False
        if not allowed:
            self.blocked.append(record)
        return allowed
