"""Tests for the installed-package database."""

import pytest

from repro.errors import PackageNotFound
from repro.android.apk import AndroidManifest
from repro.android.filesystem import FIRST_APP_UID
from repro.android.packages import InstalledPackage, PackageDatabase
from repro.android.permissions import PermissionRegistry, PermissionState
from repro.android.signing import SigningKey


def make_package(db, name="com.x", is_system=False):
    registry = PermissionRegistry()
    return InstalledPackage(
        package=name,
        version_code=1,
        certificate=SigningKey("dev", "k").certificate,
        manifest=AndroidManifest(package=name),
        uid=db.allocate_uid(),
        permissions=PermissionState(registry),
        is_system=is_system,
    )


@pytest.fixture
def db():
    return PackageDatabase(PermissionRegistry())


def test_uid_allocation_starts_at_app_range(db):
    assert db.allocate_uid() == FIRST_APP_UID
    assert db.allocate_uid() == FIRST_APP_UID + 1


def test_add_get_remove(db):
    package = make_package(db)
    db.add(package)
    assert db.get("com.x") is package
    assert db.is_installed("com.x")
    removed = db.remove("com.x")
    assert removed is package
    assert not db.is_installed("com.x")


def test_require_raises_when_absent(db):
    with pytest.raises(PackageNotFound):
        db.require("com.ghost")


def test_remove_missing_raises(db):
    with pytest.raises(PackageNotFound):
        db.remove("com.ghost")


def test_all_packages_sorted(db):
    db.add(make_package(db, "com.b"))
    db.add(make_package(db, "com.a"))
    assert [pkg.package for pkg in db.all_packages()] == ["com.a", "com.b"]


def test_len(db):
    assert len(db) == 0
    db.add(make_package(db))
    assert len(db) == 1
