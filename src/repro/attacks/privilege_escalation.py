"""Privilege escalation via deliberately installed vulnerable system apps
(Section III-B, "Privilege escalation").

Because each vendor signs *every* system app with one platform key
(Section IV-B), an attacker who can silently install apps (via any GIA)
can plant a **vulnerable platform-signed app** — the paper used an old
TeamViewer exploited with the Certifi-gate technique — and then drive
its unauthenticated command interface to act with ``signatureOrSystem``
privileges.
"""

from __future__ import annotations

from typing import List

from repro.android.apk import Apk, ApkBuilder
from repro.android.app import App
from repro.android.intents import Intent
from repro.android.permissions import INSTALL_PACKAGES, DELETE_PACKAGES
from repro.android.signing import SigningKey
from repro.attacks.base import MaliciousApp
from repro.core.ait import AITStep
from repro.core.outcomes import AttackResult

VULNERABLE_APP_PACKAGE = "com.teamviewer.quicksupport.market"
TV_COMMAND_EXTRA = "tv_command"


def build_vulnerable_apk(platform_key: SigningKey, version_code: int = 1) -> Apk:
    """The vulnerable remote-support app, signed with the platform key.

    It requests ``INSTALL_PACKAGES``/``DELETE_PACKAGES`` —
    ``signatureOrSystem``, granted because the signature matches the
    platform certificate even when the app is *not* pre-installed.
    """
    return (
        ApkBuilder(VULNERABLE_APP_PACKAGE)
        .label("QuickSupport")
        .version(version_code)
        .uses_permission(INSTALL_PACKAGES, DELETE_PACKAGES)
        .payload(b"<remote support code with certifi-gate hole>")
        .build(platform_key)
    )


class VulnerableSystemApp(App):
    """Runtime behaviour of the planted app: an unauthenticated
    command interface (the Certifi-gate-class flaw)."""

    package = VULNERABLE_APP_PACKAGE

    def __init__(self) -> None:
        super().__init__()
        self.executed: List[dict] = []

    def handle_intent(self, intent: Intent) -> None:
        command = intent.extras.get(TV_COMMAND_EXTRA)
        if not isinstance(command, dict):
            return
        # The flaw: no caller authentication before acting with
        # signatureOrSystem privileges.
        self.executed.append(command)
        operation = command.get("op")
        if operation == "install":
            self.system.pms.install_package(
                command.get("path", ""), self.caller,
                installer_package=self.package,
            )
        elif operation == "uninstall":
            self.system.pms.uninstall_package(command.get("package", ""), self.caller)


class VulnerableSystemAppAttacker(MaliciousApp):
    """Drives the planted vulnerable app to install arbitrary packages."""

    def exploit_install(self, staged_apk_path: str) -> bool:
        """Have the vulnerable app silently install the staged APK."""
        intent = Intent(
            target_package=VULNERABLE_APP_PACKAGE,
            target_activity="RemoteCommandActivity",
        ).with_extra(TV_COMMAND_EXTRA, {"op": "install", "path": staged_apk_path})
        return self.start_activity(intent)

    def result(self, payload_package: str) -> AttackResult:
        """Did the second-stage payload land with system help?"""
        installed = self.system.pms.get_package(payload_package)
        return AttackResult(
            attack_name="vulnerable-system-app",
            ait_step=AITStep.INSTALL,
            succeeded=installed is not None
            and installed.installer_package == VULNERABLE_APP_PACKAGE,
            detail={"payload": payload_package},
        )
