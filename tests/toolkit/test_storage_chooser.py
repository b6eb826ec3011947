"""Tests for Suggestion 1: the storage chooser and its Section II math."""

from repro.android.storage import GB, MB, StorageVolume
from repro.toolkit.storage_chooser import (
    DEFAULT_HEADROOM_BYTES,
    StorageChoice,
    choose_storage,
)


def test_small_app_on_roomy_device_goes_internal():
    internal = StorageVolume("internal", 16 * GB, used_bytes=6 * GB)
    decision = choose_storage(internal, 50 * MB)
    assert decision.choice is StorageChoice.INTERNAL


def test_double_space_requirement():
    """Internal staging needs 2x the APK plus headroom."""
    apk = 100 * MB
    just_enough = StorageVolume("internal", 10 * GB,
                                used_bytes=10 * GB - (2 * apk + DEFAULT_HEADROOM_BYTES))
    assert choose_storage(just_enough, apk).choice is StorageChoice.INTERNAL
    one_byte_short = StorageVolume(
        "internal", 10 * GB,
        used_bytes=10 * GB - (2 * apk + DEFAULT_HEADROOM_BYTES) + 1,
    )
    assert choose_storage(one_byte_short, apk).choice is StorageChoice.EXTERNAL


def test_paper_example_gabriel_knight_on_galaxy_j5():
    """Section II: a 1.6 GB game cannot install internally with 2.5 GB free."""
    internal = StorageVolume("internal", 8 * GB, used_bytes=8 * GB - int(2.5 * GB))
    game = int(1.6 * GB)
    decision = choose_storage(internal, game)
    assert decision.choice is StorageChoice.EXTERNAL
    assert decision.required_internal_bytes > decision.free_internal_bytes


def test_same_game_fits_on_flagship():
    internal = StorageVolume("internal", 32 * GB, used_bytes=12 * GB)
    decision = choose_storage(internal, int(1.6 * GB))
    assert decision.choice is StorageChoice.INTERNAL


def test_decision_records_arithmetic():
    internal = StorageVolume("internal", 1 * GB, used_bytes=0)
    decision = choose_storage(internal, 10 * MB)
    assert decision.apk_size_bytes == 10 * MB
    assert decision.required_internal_bytes == 2 * 10 * MB + DEFAULT_HEADROOM_BYTES
    assert decision.free_internal_bytes == 1 * GB


def test_custom_headroom():
    internal = StorageVolume("internal", 100 * MB, used_bytes=0)
    assert choose_storage(internal, 40 * MB,
                          headroom_bytes=0).choice is StorageChoice.INTERNAL
    assert choose_storage(internal, 40 * MB,
                          headroom_bytes=30 * MB).choice is StorageChoice.EXTERNAL
