"""Tests for the IntentFirewall inspection pipeline."""

from repro.android.intent_firewall import (
    InspectionResult,
    IntentFirewall,
    IntentRecord,
)
from repro.android.intents import Intent


def make_record(sender="com.a", recipient="com.b", time_ns=0,
                uid=10001, is_system=False):
    return IntentRecord(
        intent=Intent(target_package=recipient),
        sender_package=sender,
        sender_uid=uid,
        sender_is_system=is_system,
        recipient_package=recipient,
        delivery_time_ns=time_ns,
    )


def test_stock_firewall_allows_everything():
    firewall = IntentFirewall()
    assert firewall.check_intent(make_record())
    assert len(firewall.alarms) == 0


def test_records_are_kept():
    firewall = IntentFirewall()
    firewall.check_intent(make_record())
    firewall.check_intent(make_record(sender="com.c"))
    assert len(firewall.records) == 2


def test_inspector_can_block():
    firewall = IntentFirewall()
    firewall.add_inspector(lambda record: InspectionResult(allow=False))
    assert not firewall.check_intent(make_record())
    assert len(firewall.blocked) == 1


def test_inspector_can_alarm_without_blocking():
    firewall = IntentFirewall()
    firewall.add_inspector(
        lambda record: InspectionResult(alarm="suspicious")
    )
    assert firewall.check_intent(make_record())
    assert firewall.alarms == ["suspicious"]
    assert firewall.blocked == []


def test_inspectors_run_in_order_and_all_run():
    firewall = IntentFirewall()
    calls = []
    firewall.add_inspector(lambda r: (calls.append("a"), InspectionResult())[1])
    firewall.add_inspector(
        lambda r: (calls.append("b"), InspectionResult(allow=False))[1]
    )
    firewall.add_inspector(lambda r: (calls.append("c"), InspectionResult())[1])
    assert not firewall.check_intent(make_record())
    assert calls == ["a", "b", "c"]


def test_one_veto_blocks_despite_later_allows():
    firewall = IntentFirewall()
    firewall.add_inspector(lambda r: InspectionResult(allow=False))
    firewall.add_inspector(lambda r: InspectionResult(allow=True))
    assert not firewall.check_intent(make_record())
