"""A linter for installer designs: Section VII's suggestions as checks.

``audit_profile`` inspects an
:class:`~repro.installers.base.InstallerProfile` and reports every
deviation from the paper's guidance.  Run against the Section III
installers it flags exactly the weaknesses the paper exploited; run
against the toolkit installer and Google Play it comes back clean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.installers.base import InstallerProfile
from repro.sim.clock import millis


class Severity(enum.Enum):
    """How bad a finding is."""

    CRITICAL = "critical"   # directly exploitable by a GIA
    WARNING = "warning"     # widens the attack window / weakens a check
    INFO = "info"           # style/robustness advice


@dataclass(frozen=True)
class AuditFinding:
    """One deviation from the suggestions."""

    severity: Severity
    suggestion: int          # which of the paper's 4 suggestions (0 = other)
    title: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity.value.upper()}] S{self.suggestion}: {self.title}"


def audit_profile(profile: InstallerProfile) -> List[AuditFinding]:
    """Audit one installer design; returns findings sorted by severity."""
    findings: List[AuditFinding] = []

    if profile.uses_sdcard and not profile.verify_hash:
        findings.append(AuditFinding(
            Severity.CRITICAL, 2,
            "SD-Card staging without any integrity check",
            "any WRITE_EXTERNAL_STORAGE holder can replace the APK and "
            "nothing will notice before the PMS/PIA reads it",
        ))
    if profile.uses_sdcard and profile.verify_hash:
        findings.append(AuditFinding(
            Severity.CRITICAL, 1,
            "APK staged on shared external storage",
            "the TOCTOU window between the integrity check and the "
            "install is reliably catchable via FileObserver; prefer "
            "internal storage, or pair the SD-Card with the Section V "
            "guard (see repro.toolkit.secure_installer)",
        ))
    if (profile.uses_sdcard and profile.verify_hash
            and profile.install_delay_ns > millis(50)):
        findings.append(AuditFinding(
            Severity.WARNING, 2,
            f"{profile.install_delay_ns / 1e6:.0f} ms between check and install",
            "verify the hash immediately before invoking the PMS; every "
            "millisecond of delay widens the swap window",
        ))
    if profile.uses_pms_verification:
        findings.append(AuditFinding(
            Severity.WARNING, 2,
            "relies on installPackageWithVerification",
            "the API checks only the AndroidManifest checksum, which a "
            "repackaged APK preserves; verify the full file hash (or the "
            "signature) instead",
        ))
    if profile.randomize_names and profile.uses_sdcard:
        findings.append(AuditFinding(
            Severity.INFO, 1,
            "name randomization on the SD-Card is not a defense",
            "the staging directory is stable and FileObserver reports "
            "events for any name; randomization only obscures, it does "
            "not protect",
        ))
    if not profile.uses_sdcard and not profile.world_readable_staging:
        findings.append(AuditFinding(
            Severity.WARNING, 0,
            "internal staging without making the APK world-readable",
            "the PackageManagerService cannot read a private file; this "
            "install will fail (the failure mode that pushes developers "
            "onto the SD-Card)",
        ))
    if profile.redownload_on_corrupt and profile.uses_sdcard:
        findings.append(AuditFinding(
            Severity.INFO, 2,
            "transparent re-download on corruption",
            "retrying silently gives the attacker another shot at the "
            "window; at minimum, surface repeated corruption to the user",
        ))
    order = {Severity.CRITICAL: 0, Severity.WARNING: 1, Severity.INFO: 2}
    findings.sort(key=lambda finding: (order[finding.severity],
                                       finding.suggestion))
    return findings

