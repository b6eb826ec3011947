"""Intents: the messages that start activities and carry commands.

Reproduces the property at the root of the redirect-Intent attack
(Section III-D): a delivered Intent does **not** tell the recipient who
sent it.  ``origin`` stays ``None`` unless the Intent-origin defense
(Section V-C) is installed in the IntentFirewall, which populates it via
the hidden ``set_intent_origin`` API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

ACTION_VIEW = "android.intent.action.VIEW"
ACTION_MAIN = "android.intent.action.MAIN"

FLAG_ACTIVITY_SINGLE_TOP = 0x20000000


@dataclass
class Intent:
    """A (simplified) android.content.Intent."""

    action: str = ACTION_VIEW
    target_package: str = ""
    target_activity: str = ""
    data: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)
    flags: int = 0
    # Hidden field added by the paper's defense (mIntentOrigin).
    _origin: Optional[str] = None

    @property
    def single_top(self) -> bool:
        """True if FLAG_ACTIVITY_SINGLE_TOP is set."""
        return bool(self.flags & FLAG_ACTIVITY_SINGLE_TOP)

    def with_extra(self, key: str, value: Any) -> "Intent":
        """Fluent helper: set an extra and return self."""
        self.extras[key] = value
        return self

    def get_intent_origin(self) -> Optional[str]:
        """Hidden API: the sender's package name, if the defense set it."""
        return self._origin

    def set_intent_origin(self, origin: str) -> None:
        """Hidden API used by the modified IntentFirewall."""
        self._origin = origin

    def __repr__(self) -> str:
        target = self.target_package or "<unresolved>"
        return f"Intent({self.action!r} -> {target}/{self.target_activity})"
