"""Property-based tests for permission-model invariants."""

from hypothesis import given, settings, strategies as st

from repro.android.permissions import (
    PermissionDefinition,
    PermissionRegistry,
    PermissionState,
    ProtectionLevel,
)

names = st.from_regex(r"com\.[a-z]{2,8}\.permission\.[A-Z]{2,10}", fullmatch=True)
levels = st.sampled_from(list(ProtectionLevel))
groups = st.one_of(st.none(), st.sampled_from(["g1", "g2", "g3"]))


@given(definitions=st.lists(
    st.tuples(names, levels, groups, st.text(min_size=1, max_size=8)),
    min_size=1, max_size=20,
))
@settings(max_examples=50, deadline=None)
def test_first_definer_always_wins(definitions):
    registry = PermissionRegistry()
    first_seen = {}
    for name, level, group, definer in definitions:
        definition = PermissionDefinition(name, level, group, definer)
        accepted = registry.define(definition)
        if name not in first_seen:
            assert accepted
            first_seen[name] = definition
        else:
            assert not accepted
    for name, definition in first_seen.items():
        assert registry.require(name) == definition


@given(grant_order=st.permutations(
    ["android.permission.READ_EXTERNAL_STORAGE",
     "android.permission.WRITE_EXTERNAL_STORAGE"]
))
@settings(max_examples=10, deadline=None)
def test_group_autogrant_is_symmetric(grant_order):
    """Whichever STORAGE member is granted first, the other is silent."""
    registry = PermissionRegistry()
    state = PermissionState(registry)
    first, second = grant_order
    state.request(first, user_approves=True)
    assert state.request_is_silent(second)
    assert state.request(second, user_approves=False)


@given(names_list=st.lists(names, min_size=1, max_size=15, unique=True))
@settings(max_examples=40, deadline=None)
def test_hares_partition_defined_and_undefined(names_list):
    registry = PermissionRegistry()
    defined = names_list[::2]
    for name in defined:
        registry.define(PermissionDefinition(name, ProtectionLevel.NORMAL))
    hares = [name for name in names_list if registry.lookup(name) is None]
    assert set(hares) == set(names_list) - set(defined)
