"""Structured results of installs, attacks and defense reactions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.ait import AITStep, TransactionTrace


@dataclass
class InstallOutcome:
    """What one AIT run produced, from the *scenario's* point of view.

    ``hijacked`` is the ground truth the simulator can see directly:
    whether the package installed on the device carries the attacker's
    payload/certificate instead of the store's genuine one.
    """

    requested_package: str
    installed: bool = False
    installed_certificate_owner: Optional[str] = None
    genuine_certificate_owner: Optional[str] = None
    hijacked: bool = False
    error: Optional[str] = None
    trace: Optional[TransactionTrace] = None
    elapsed_ns: int = 0

    @property
    def clean_install(self) -> bool:
        """Installed and not hijacked."""
        return self.installed and not self.hijacked


@dataclass
class AttackResult:
    """What an attack module claims it achieved, plus verifiable facts."""

    attack_name: str
    ait_step: AITStep
    succeeded: bool
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "SUCCEEDED" if self.succeeded else "FAILED"
        return f"{self.attack_name} on AIT step {self.ait_step.value}: {status}"


@dataclass
class DefenseReport:
    """Alarms and blocks raised by the active defenses during a run."""

    defense_name: str
    alarms: List[str] = field(default_factory=list)
    blocked_operations: List[str] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """True if the defense raised at least one alarm."""
        return bool(self.alarms)

    @property
    def prevented(self) -> bool:
        """True if the defense blocked at least one operation."""
        return bool(self.blocked_operations)
