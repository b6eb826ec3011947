"""Property-based tests for the toolkit's storage chooser."""

from hypothesis import given, settings, strategies as st

from repro.android.storage import StorageVolume
from repro.toolkit.storage_chooser import StorageChoice, choose_storage

sizes = st.integers(min_value=1, max_value=2**34)
frees = st.integers(min_value=0, max_value=2**35)
headrooms = st.integers(min_value=0, max_value=2**30)


@given(free=frees, size=sizes, headroom=headrooms)
@settings(max_examples=80, deadline=None)
def test_decision_matches_the_arithmetic(free, size, headroom):
    volume = StorageVolume("v", capacity_bytes=free, used_bytes=0)
    decision = choose_storage(volume, size, headroom_bytes=headroom)
    fits = free >= 2 * size + headroom
    assert (decision.choice is StorageChoice.INTERNAL) == fits
    assert decision.required_internal_bytes == 2 * size + headroom
    assert decision.free_internal_bytes == free


@given(free=frees, small=sizes, headroom=headrooms,
       growth=st.integers(min_value=1, max_value=2**30))
@settings(max_examples=50, deadline=None)
def test_monotonic_in_apk_size(free, small, headroom, growth):
    """If the small APK is pushed external, a bigger one is too."""
    volume = StorageVolume("v", capacity_bytes=free, used_bytes=0)
    small_choice = choose_storage(volume, small, headroom_bytes=headroom).choice
    big_choice = choose_storage(volume, small + growth,
                                headroom_bytes=headroom).choice
    if small_choice is StorageChoice.EXTERNAL:
        assert big_choice is StorageChoice.EXTERNAL


@given(free=frees, size=sizes, headroom=headrooms,
       extra=st.integers(min_value=1, max_value=2**30))
@settings(max_examples=50, deadline=None)
def test_monotonic_in_free_space(free, size, headroom, extra):
    """More free space never flips a decision from internal to external."""
    smaller = StorageVolume("v", capacity_bytes=free, used_bytes=0)
    larger = StorageVolume("v", capacity_bytes=free + extra, used_bytes=0)
    small_choice = choose_storage(smaller, size, headroom_bytes=headroom).choice
    large_choice = choose_storage(larger, size, headroom_bytes=headroom).choice
    if small_choice is StorageChoice.INTERNAL:
        assert large_choice is StorageChoice.INTERNAL
