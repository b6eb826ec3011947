"""Tests for the Amazon JS-bridge and Xiaomi push-forgery attacks (Step 1)."""

import json

import pytest

from repro.android.intents import FLAG_ACTIVITY_SINGLE_TOP, Intent
from repro.attacks.command_injection import (
    AmazonJsInjectionAttacker,
    XiaomiPushForgeryAttacker,
)
from repro.core.scenario import Scenario
from repro.installers import AmazonInstaller, XiaomiInstaller
from repro.installers.amazon import AMAZON_PACKAGE, VENEZIA_JS_EXTRA
from repro.installers.xiaomi import XIAOMI_PUSH_PERMISSION

PAYLOAD = "com.evil.payload"


def amazon_scenario(sanitized=False):
    scenario = Scenario.build(installer=AmazonInstaller,
                              attacker=AmazonJsInjectionAttacker)
    scenario.installer.js_bridge_sanitized = sanitized
    scenario.publish_app(PAYLOAD, label="Evil")
    return scenario


def xiaomi_scenario(protected=False):
    scenario = Scenario.build(
        installer=XiaomiInstaller(receiver_protected=protected),
        attacker=XiaomiPushForgeryAttacker,
    )
    scenario.publish_app(PAYLOAD, label="Evil", app_id="id-evil")
    return scenario


# -- Amazon ---------------------------------------------------------------------


def test_amazon_js_silent_install():
    scenario = amazon_scenario()
    scenario.attacker.inject_install(PAYLOAD)
    scenario.system.run()
    assert scenario.system.pms.is_installed(PAYLOAD)
    assert scenario.attacker.result(PAYLOAD, expect_installed=True).succeeded


def test_amazon_js_silent_uninstall():
    scenario = amazon_scenario()
    scenario.attacker.inject_install(PAYLOAD)
    scenario.system.run()
    scenario.attacker.inject_uninstall(PAYLOAD)
    scenario.system.run()
    assert not scenario.system.pms.is_installed(PAYLOAD)


def test_amazon_js_private_service_invocation():
    scenario = amazon_scenario()
    command = {"op": "invokeService",
               "service": "com.amazon.internal.BillingService"}
    scenario.attacker.start_activity(Intent(
        target_package=AMAZON_PACKAGE,
        target_activity="com.amazon.venezia.Venezia",
        flags=FLAG_ACTIVITY_SINGLE_TOP,
    ).with_extra(VENEZIA_JS_EXTRA, json.dumps(command)))
    scenario.system.run()
    executed = scenario.installer.js_executions
    assert executed[-1]["service_invoked"] == "com.amazon.internal.BillingService"


def test_amazon_bridge_never_authenticates_origin():
    scenario = amazon_scenario()
    scenario.attacker.inject_install(PAYLOAD)
    scenario.system.run()
    # The Venezia activity executed the script with zero knowledge of
    # who sent it — there is nothing sender-related in the command log.
    assert "sender" not in scenario.installer.js_executions[0]


def test_amazon_sanitized_bridge_drops_script():
    """The paper's reported-and-fixed behaviour."""
    scenario = amazon_scenario(sanitized=True)
    scenario.attacker.inject_install(PAYLOAD)
    scenario.system.run()
    assert not scenario.system.pms.is_installed(PAYLOAD)
    assert scenario.installer.js_executions == []


def test_amazon_malformed_script_ignored():
    scenario = amazon_scenario()
    from repro.android.intents import FLAG_ACTIVITY_SINGLE_TOP, Intent
    from repro.installers.amazon import VENEZIA_JS_EXTRA
    intent = Intent(target_package=AmazonInstaller.profile.package,
                    flags=FLAG_ACTIVITY_SINGLE_TOP)
    intent.with_extra(VENEZIA_JS_EXTRA, "not json {{{")
    scenario.attacker.start_activity(intent)
    scenario.system.run()
    assert scenario.installer.js_executions == []


# -- Xiaomi ----------------------------------------------------------------------


def test_xiaomi_forged_push_installs_silently():
    scenario = xiaomi_scenario()
    reached = scenario.attacker.forge_push("id-evil", PAYLOAD)
    scenario.system.run()
    assert reached == 1
    assert scenario.system.pms.is_installed(PAYLOAD)
    assert scenario.attacker.result(PAYLOAD).succeeded


def test_xiaomi_push_by_package_name_fallback():
    scenario = xiaomi_scenario()
    scenario.attacker.forge_push("wrong-id", PAYLOAD)
    scenario.system.run()
    assert scenario.system.pms.is_installed(PAYLOAD)


def test_xiaomi_push_unknown_app_ignored():
    scenario = xiaomi_scenario()
    scenario.attacker.forge_push("nope", "com.not.published")
    scenario.system.run()
    assert not scenario.system.pms.is_installed("com.not.published")


def test_xiaomi_protected_receiver_blocks_forgery():
    """The paper's fix: guard the receiver with a permission."""
    scenario = xiaomi_scenario(protected=True)
    reached = scenario.attacker.forge_push("id-evil", PAYLOAD)
    scenario.system.run()
    assert reached == 0
    assert not scenario.system.pms.is_installed(PAYLOAD)


def test_xiaomi_legitimate_push_still_works_when_protected():
    scenario = xiaomi_scenario(protected=True)
    from repro.android.filesystem import Caller
    cloud = Caller(uid=10055, package="com.xiaomi.cloud",
                   permissions=frozenset({XIAOMI_PUSH_PERMISSION}))
    import json
    reached = scenario.system.ams.send_broadcast(
        cloud, "com.xiaomi.market.push.RECEIVE",
        {"jsonContent": json.dumps(
            {"type": "app", "appId": "id-evil", "packageName": PAYLOAD}
        )},
    )
    scenario.system.run()
    assert reached == 1
    assert scenario.system.pms.is_installed(PAYLOAD)


def test_xiaomi_malformed_push_ignored():
    scenario = xiaomi_scenario()
    scenario.system.ams.send_broadcast(
        scenario.attacker.caller, "com.xiaomi.market.push.RECEIVE",
        {"jsonContent": "]]]garbage"},
    )
    scenario.system.run()
    assert scenario.installer.push_log == []
