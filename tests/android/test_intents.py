"""Unit tests for the Intent model."""

from repro.android.intents import (
    ACTION_MAIN,
    ACTION_VIEW,
    FLAG_ACTIVITY_SINGLE_TOP,
    Intent,
)


def test_defaults():
    intent = Intent()
    assert intent.action == ACTION_VIEW
    assert intent.extras == {}
    assert intent.flags == 0
    assert not intent.single_top


def test_single_top_flag():
    intent = Intent(flags=FLAG_ACTIVITY_SINGLE_TOP)
    assert intent.single_top
    combined = Intent(flags=FLAG_ACTIVITY_SINGLE_TOP | 0x1)
    assert combined.single_top


def test_with_extra_is_fluent_and_mutating():
    intent = Intent().with_extra("a", 1).with_extra("b", "two")
    assert intent.extras == {"a": 1, "b": "two"}


def test_origin_hidden_api_defaults_none():
    intent = Intent()
    assert intent.get_intent_origin() is None
    intent.set_intent_origin("com.sender")
    assert intent.get_intent_origin() == "com.sender"


def test_repr_mentions_target():
    intent = Intent(target_package="com.store", target_activity="Page")
    assert "com.store" in repr(intent)
    assert "<unresolved>" in repr(Intent())


def test_action_main_constant():
    assert ACTION_MAIN.endswith("MAIN")


def test_extras_are_per_instance():
    first = Intent().with_extra("k", 1)
    second = Intent()
    assert second.extras == {}
