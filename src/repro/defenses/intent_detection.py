"""Redirect-Intent detection in the IntentFirewall (Section V-C).

For every Intent sent through ``startActivity`` the scheme keeps an
``intentRecord`` (recipient package, delivery time, sender UID) in a
hash map keyed by recipient — only the last Intent per recipient is
preserved.  When two consecutive Intents reach the same recipient less
than a threshold (1 second in the paper) apart, the event is reported
to the user as a possible attack, **unless**

1. both come from the same app (package or shared UID), or
2. sender and receiver are the same app, or
3. the sender is a system app or service.
"""

from __future__ import annotations

from typing import Dict

from repro.android.intent_firewall import (
    InspectionResult,
    IntentFirewall,
    IntentRecord,
)
from repro.core.outcomes import DefenseReport
from repro.obs.trace import NULL_RECORDER
from repro.sim.clock import seconds

DEFAULT_THRESHOLD_NS = seconds(1)


class IntentDetectionScheme:
    """The consecutive-Intent detector."""

    def __init__(self, threshold_ns: int = DEFAULT_THRESHOLD_NS,
                 block_on_alarm: bool = False) -> None:
        self.threshold_ns = threshold_ns
        # The paper's scheme reports; blocking is an ablation knob.
        self.block_on_alarm = block_on_alarm
        self._last_by_recipient: Dict[str, IntentRecord] = {}
        self.report = DefenseReport(defense_name="Intent-Detection")
        self._obs = NULL_RECORDER
        self._suppressed = False

    def suppress_reactions(self) -> None:
        """Test-only: keep recording Intents but never alarm or block.

        Exists for the fuzz completeness oracle, which must prove it
        notices a defense that silently stopped working.
        """
        self._suppressed = True

    def install(self, firewall: IntentFirewall) -> "IntentDetectionScheme":
        """Register with ``firewall``; returns self for chaining."""
        firewall.add_inspector(self.inspect)
        return self

    def bind_observability(self, recorder) -> None:
        """Route alarm/block decisions to ``recorder``."""
        self._obs = recorder

    def inspect(self, record: IntentRecord) -> InspectionResult:
        """The logic run inside IntentFirewall.checkIntent."""
        previous = self._last_by_recipient.get(record.recipient_package)
        self._last_by_recipient[record.recipient_package] = record
        if previous is None:
            return InspectionResult()
        interval = record.delivery_time_ns - previous.delivery_time_ns
        if interval >= self.threshold_ns:
            return InspectionResult()
        if self._whitelisted(previous, record):
            return InspectionResult()
        if self._suppressed:
            return InspectionResult()
        alarm = (
            f"possible redirect-Intent attack on {record.recipient_package}: "
            f"{record.sender_package} replaced {previous.sender_package}'s "
            f"Intent after {interval / 1e6:.0f} ms"
        )
        self.report.alarms.append(alarm)
        if self._obs.enabled:
            self._obs.event(
                "defense/alarm", record.delivery_time_ns,
                defense=self.report.defense_name, reason=alarm,
                blocked=self.block_on_alarm)
        if self.block_on_alarm:
            self.report.blocked_operations.append(alarm)
            return InspectionResult(allow=False, alarm=alarm)
        return InspectionResult(alarm=alarm)

    def _whitelisted(self, previous: IntentRecord, record: IntentRecord) -> bool:
        if (record.sender_package == previous.sender_package
                or record.sender_uid == previous.sender_uid):
            return True  # rule 1: same app / shared UID
        if record.sender_package == record.recipient_package:
            return True  # rule 2: app talking to itself
        if record.sender_is_system:
            return True  # rule 3: system apps and services
        return False

    @property
    def detected(self) -> bool:
        """True once at least one suspicious pair was reported."""
        return self.report.detected
