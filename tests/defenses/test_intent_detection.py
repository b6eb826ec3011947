"""Tests for the redirect-Intent detection scheme."""

import pytest

from repro.android.intent_firewall import IntentFirewall, IntentRecord
from repro.android.intents import Intent
from repro.defenses.intent_detection import (
    DEFAULT_THRESHOLD_NS,
    IntentDetectionScheme,
)
from repro.sim.clock import millis, seconds


def make_record(sender="com.a", recipient="com.store", time_ns=0,
                uid=None, is_system=False):
    return IntentRecord(
        intent=Intent(target_package=recipient),
        sender_package=sender,
        sender_uid=uid if uid is not None else abs(hash(sender)) % 50000 + 10000,
        sender_is_system=is_system,
        recipient_package=recipient,
        delivery_time_ns=time_ns,
    )


@pytest.fixture
def scheme():
    return IntentDetectionScheme()


def test_default_threshold_is_one_second(scheme):
    assert scheme.threshold_ns == seconds(1)
    assert DEFAULT_THRESHOLD_NS == seconds(1)


def test_fast_pair_from_different_senders_alarms(scheme):
    scheme.inspect(make_record(sender="com.facebook", time_ns=0))
    result = scheme.inspect(make_record(sender="com.evil", time_ns=millis(300)))
    assert result.alarm is not None
    assert scheme.detected


def test_slow_pair_does_not_alarm(scheme):
    scheme.inspect(make_record(sender="com.facebook", time_ns=0))
    result = scheme.inspect(
        make_record(sender="com.evil", time_ns=seconds(2))
    )
    assert result.alarm is None


def test_whitelist_rule1_same_sender(scheme):
    scheme.inspect(make_record(sender="com.app", time_ns=0))
    result = scheme.inspect(make_record(sender="com.app", time_ns=millis(100)))
    assert result.alarm is None


def test_whitelist_rule1_shared_uid(scheme):
    scheme.inspect(make_record(sender="com.suite.one", uid=10100, time_ns=0))
    result = scheme.inspect(
        make_record(sender="com.suite.two", uid=10100, time_ns=millis(100))
    )
    assert result.alarm is None


def test_whitelist_rule2_self_intent(scheme):
    scheme.inspect(make_record(sender="com.other", time_ns=0))
    result = scheme.inspect(
        make_record(sender="com.store", recipient="com.store",
                    time_ns=millis(100))
    )
    assert result.alarm is None


def test_whitelist_rule3_system_sender(scheme):
    scheme.inspect(make_record(sender="com.app", time_ns=0))
    result = scheme.inspect(
        make_record(sender="android", is_system=True, time_ns=millis(100))
    )
    assert result.alarm is None


def test_only_last_intent_per_recipient_kept(scheme):
    scheme.inspect(make_record(sender="com.a", time_ns=0))
    scheme.inspect(make_record(sender="com.a", time_ns=millis(200)))
    # A third from another sender compares against the *second*.
    result = scheme.inspect(make_record(sender="com.evil", time_ns=millis(350)))
    assert result.alarm is not None


def test_different_recipients_tracked_independently(scheme):
    scheme.inspect(make_record(recipient="com.store1", sender="com.a", time_ns=0))
    result = scheme.inspect(
        make_record(recipient="com.store2", sender="com.b", time_ns=millis(100))
    )
    assert result.alarm is None


def test_report_mode_does_not_block(scheme):
    scheme.inspect(make_record(sender="com.a", time_ns=0))
    result = scheme.inspect(make_record(sender="com.evil", time_ns=millis(100)))
    assert result.allow


def test_block_mode_vetoes():
    scheme = IntentDetectionScheme(block_on_alarm=True)
    scheme.inspect(make_record(sender="com.a", time_ns=0))
    result = scheme.inspect(make_record(sender="com.evil", time_ns=millis(100)))
    assert not result.allow
    assert scheme.report.prevented


def test_install_registers_with_firewall():
    firewall = IntentFirewall()
    scheme = IntentDetectionScheme().install(firewall)
    firewall.check_intent(make_record(sender="com.a", time_ns=0))
    firewall.check_intent(make_record(sender="com.evil", time_ns=millis(100)))
    assert len(firewall.alarms) == 1
    assert scheme.detected


def test_alarm_text_names_both_parties(scheme):
    scheme.inspect(make_record(sender="com.facebook", time_ns=0))
    scheme.inspect(make_record(sender="com.evil", time_ns=millis(250)))
    alarm = scheme.report.alarms[0]
    assert "com.evil" in alarm and "com.facebook" in alarm and "com.store" in alarm
