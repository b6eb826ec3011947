"""Tests for the permission model: levels, groups, Hares, runtime grants."""

import pytest

from repro.errors import PermissionUnknown
from repro.android.permissions import (
    INSTALL_PACKAGES,
    PermissionDefinition,
    PermissionRegistry,
    PermissionState,
    ProtectionLevel,
    READ_EXTERNAL_STORAGE,
    STORAGE_GROUP,
    WRITE_EXTERNAL_STORAGE,
)


@pytest.fixture
def registry():
    return PermissionRegistry()


def test_builtins_are_defined(registry):
    assert registry.lookup(INSTALL_PACKAGES) is not None
    assert registry.lookup(WRITE_EXTERNAL_STORAGE) is not None


def test_install_packages_is_signature_or_system(registry):
    definition = registry.require(INSTALL_PACKAGES)
    assert definition.level is ProtectionLevel.SIGNATURE_OR_SYSTEM


def test_storage_permissions_share_group(registry):
    read = registry.require(READ_EXTERNAL_STORAGE)
    write = registry.require(WRITE_EXTERNAL_STORAGE)
    assert read.group == write.group == STORAGE_GROUP


def test_first_definer_wins(registry):
    first = PermissionDefinition("com.p", ProtectionLevel.NORMAL, defined_by="a")
    second = PermissionDefinition("com.p", ProtectionLevel.DANGEROUS, defined_by="b")
    assert registry.define(first)
    assert not registry.define(second)
    assert registry.require("com.p").defined_by == "a"


def test_undefine_all_by(registry):
    registry.define(PermissionDefinition("com.p1", ProtectionLevel.NORMAL, defined_by="a"))
    registry.define(PermissionDefinition("com.p2", ProtectionLevel.NORMAL, defined_by="a"))
    removed = registry.undefine_all_by("a")
    assert sorted(removed) == ["com.p1", "com.p2"]
    assert registry.lookup("com.p1") is None


def test_require_unknown_raises(registry):
    with pytest.raises(PermissionUnknown):
        registry.require("com.never.defined")


def test_hares_lists_undefined(registry):
    registry.define(PermissionDefinition("com.defined", ProtectionLevel.NORMAL))
    used = ["com.defined", "com.hare1", "com.hare2"]
    hares = [name for name in used if registry.lookup(name) is None]
    assert hares == ["com.hare1", "com.hare2"]


# -- runtime grant model --------------------------------------------------------


def test_normal_permission_granted_silently(registry):
    state = PermissionState(registry)
    assert state.request("android.permission.INTERNET", user_approves=False)


def test_dangerous_permission_needs_user(registry):
    state = PermissionState(registry)
    assert not state.request(READ_EXTERNAL_STORAGE, user_approves=False)
    assert state.request(READ_EXTERNAL_STORAGE, user_approves=True)


def test_group_auto_grant_is_silent(registry):
    """The paper's adversary-model loophole (Section III-A)."""
    state = PermissionState(registry)
    state.request(READ_EXTERNAL_STORAGE, user_approves=True)
    assert state.request_is_silent(WRITE_EXTERNAL_STORAGE)
    # Granted even though the user would have declined.
    assert state.request(WRITE_EXTERNAL_STORAGE, user_approves=False)


def test_no_group_grant_without_prior_member(registry):
    state = PermissionState(registry)
    assert not state.request_is_silent(WRITE_EXTERNAL_STORAGE)


def test_regranting_held_permission_is_silent(registry):
    state = PermissionState(registry)
    state.grant(READ_EXTERNAL_STORAGE)
    assert state.request(READ_EXTERNAL_STORAGE, user_approves=False)


def test_granted_is_immutable_snapshot(registry):
    state = PermissionState(registry)
    state.grant("android.permission.INTERNET")
    snapshot = state.granted
    state.grant(READ_EXTERNAL_STORAGE)
    assert READ_EXTERNAL_STORAGE not in snapshot


def test_request_undefined_permission_raises(registry):
    state = PermissionState(registry)
    with pytest.raises(PermissionUnknown):
        state.request("com.undefined.PERM", user_approves=True)


def test_signature_permissions_never_granted_at_runtime(registry):
    """Regression: a runtime request must not mint signature-class
    permissions — only the PMS grants them, at install time."""
    from repro.android.permissions import DELETE_PACKAGES
    state = PermissionState(registry)
    assert not state.request(INSTALL_PACKAGES, user_approves=True)
    assert not state.request(DELETE_PACKAGES, user_approves=True)
    assert not state.has(INSTALL_PACKAGES)
