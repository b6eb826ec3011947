"""Tests for the content-provider registry and its permission guards."""

import pytest

from repro.errors import AndroidError, SecurityException
from repro.android.apk import ApkBuilder
from repro.android.signing import SigningKey
from repro.android.system import AndroidSystem
from repro.android.device import nexus5

DEV = SigningKey("dev", "k")


@pytest.fixture
def system():
    return AndroidSystem(nexus5())


def install(system, package, uses=(), defines=()):
    builder = ApkBuilder(package)
    if uses:
        builder.uses_permission(*uses)
    for name, level in defines:
        builder.defines_permission(name, level=level)
    system.install_user_app(builder.build(DEV))
    return system.caller_for(package)


def test_register_and_query_unguarded(system):
    caller = install(system, "com.reader")
    system.content_resolver.register("com.data", owner_package="com.owner",
                                     rows=["row1"])
    assert system.content_resolver.query(caller, "com.data") == ["row1"]


def test_duplicate_authority_rejected(system):
    system.content_resolver.register("com.data", owner_package="a")
    with pytest.raises(AndroidError):
        system.content_resolver.register("com.data", owner_package="b")


def test_query_unknown_authority(system):
    caller = install(system, "com.reader")
    with pytest.raises(AndroidError):
        system.content_resolver.query(caller, "com.ghost")


def test_read_permission_enforced(system):
    install(system, "com.definer", defines=[("com.perm.READ", "dangerous")])
    holder = install(system, "com.holder", uses=("com.perm.READ",))
    denied = install(system, "com.denied")
    system.content_resolver.register(
        "com.data", owner_package="com.definer",
        read_permission="com.perm.READ", rows=["secret"],
    )
    assert system.content_resolver.query(holder, "com.data") == ["secret"]
    with pytest.raises(SecurityException):
        system.content_resolver.query(denied, "com.data")


def test_owner_bypasses_own_guard(system):
    owner = install(system, "com.owner")
    system.content_resolver.register(
        "com.data", owner_package="com.owner",
        read_permission="com.never.DEFINED", rows=["mine"],
    )
    assert system.content_resolver.query(owner, "com.data") == ["mine"]


def test_system_bypasses_guards(system):
    system.content_resolver.register(
        "com.data", owner_package="com.owner",
        read_permission="com.never.DEFINED", rows=["x"],
    )
    assert system.content_resolver.query(system.system_caller, "com.data")


def test_write_permission_enforced(system):
    writer = install(system, "com.writer")
    system.content_resolver.register(
        "com.data", owner_package="com.owner",
        write_permission="com.perm.WRITE",
    )
    with pytest.raises(SecurityException):
        system.content_resolver.insert(writer, "com.data", "row")


def test_hare_guard_is_closed_until_someone_defines(system):
    """A provider guarded by an undefined permission: nobody (non-system)
    gets in — until a definer mints the permission for itself."""
    stranger = install(system, "com.stranger", uses=("com.hare.PERM",))
    system.content_resolver.register(
        "com.data", owner_package="com.owner",
        read_permission="com.hare.PERM", rows=["guarded"],
    )
    with pytest.raises(SecurityException):
        system.content_resolver.query(stranger, "com.data")
    # The grabber defines the hare at level normal and uses it.
    grabber = install(
        system, "com.grabber",
        uses=("com.hare.PERM",),
        defines=[("com.hare.PERM", "normal")],
    )
    assert system.content_resolver.query(grabber, "com.data") == ["guarded"]


def test_unregister_by_package(system):
    caller = install(system, "com.reader")
    system.content_resolver.register("com.data", owner_package="com.owner")
    system.content_resolver.unregister_by("com.owner")
    with pytest.raises(AndroidError, match="no provider"):
        system.content_resolver.query(caller, "com.data")
