"""Tests for the Intent-origin identification scheme."""

from repro.android.intent_firewall import IntentFirewall, IntentRecord
from repro.android.intents import Intent
from repro.defenses.intent_origin import IntentOriginScheme


def make_record(sender="com.sender", recipient="com.store"):
    return IntentRecord(
        intent=Intent(target_package=recipient),
        sender_package=sender,
        sender_uid=10001,
        sender_is_system=False,
        recipient_package=recipient,
        delivery_time_ns=0,
    )


def test_origin_stamped_into_intent():
    firewall = IntentFirewall()
    IntentOriginScheme().install(firewall)
    record = make_record("com.facebook")
    firewall.check_intent(record)
    assert record.intent.get_intent_origin() == "com.facebook"


def test_origin_absent_without_scheme():
    firewall = IntentFirewall()
    record = make_record()
    firewall.check_intent(record)
    assert record.intent.get_intent_origin() is None


def test_scheme_never_blocks():
    firewall = IntentFirewall()
    IntentOriginScheme().install(firewall)
    assert firewall.check_intent(make_record())
    assert len(firewall.alarms) == 0


def test_stamp_log_tracks_senders():
    firewall = IntentFirewall()
    scheme = IntentOriginScheme().install(firewall)
    firewall.check_intent(make_record("com.a"))
    firewall.check_intent(make_record("com.b"))
    assert scheme.stamped == ["com.a", "com.b"]


def test_hidden_api_roundtrip():
    intent = Intent(target_package="com.x")
    intent.set_intent_origin("com.sender")
    assert intent.get_intent_origin() == "com.sender"
