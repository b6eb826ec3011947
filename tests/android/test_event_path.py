"""Contracts of the watched-device event path.

Filesystem events are built once per emit and carry their path; event
types hash by identity; an app's security principal is reused while it
is current.  These tests pin what that must not change: event value
semantics, the path every listener sees, and that a principal never
goes stale after a grant or a reinstall.
"""

import pickle
import posixpath

import pytest

from repro.android.apk import ApkBuilder
from repro.android.app import App
from repro.android.fileobserver import FileObserver
from repro.android.filesystem import FileEvent, FileEventType
from repro.android.permissions import (
    READ_EXTERNAL_STORAGE,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.signing import SigningKey
from repro.engine import NullProgress, run_fleet
from tests.engine.test_golden import WATCHED_GOLDENS

DEV = SigningKey("dev", "k")


# -- FileEvent values ----------------------------------------------------------


def emitted_event(system, path="/sdcard/watch/a.apk"):
    """One CREATE event as the filesystem itself builds it."""
    system.fs.makedirs(posixpath.dirname(path), system.system_caller)
    seen = []
    observer = FileObserver(system.hub, posixpath.dirname(path),
                            mask=[FileEventType.CREATE])
    observer.on_event(seen.append)
    observer.start_watching()
    system.fs.write_bytes(path, system.system_caller, b"x")
    system.kernel.run()
    observer.stop_watching()
    (event,) = seen
    return event


def test_emitted_event_equals_a_hand_built_one(system):
    event = emitted_event(system)
    built = FileEvent(FileEventType.CREATE, "/sdcard/watch", "a.apk",
                      event.time_ns)
    assert event == built
    assert hash(event) == hash(built)
    assert repr(event) == repr(built) == (
        "FileEvent(event_type=<FileEventType.CREATE: 'CREATE'>, "
        f"directory='/sdcard/watch', name='a.apk', time_ns={event.time_ns})")
    assert event.path == built.path == "/sdcard/watch/a.apk"


def test_event_pickle_round_trip(system):
    for event in (emitted_event(system),
                  FileEvent(FileEventType.MOVED_TO, "/d", "f", 5)):
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert hash(clone) == hash(event)
        assert clone.path == event.path
        assert clone.event_type is event.event_type


def test_event_stays_frozen(system):
    event = emitted_event(system)
    with pytest.raises(AttributeError):
        event.name = "b.apk"


def test_event_type_hash_agrees_with_equality():
    for member in FileEventType:
        assert hash(member) == hash(FileEventType(member.value))
        assert member in set(FileEventType)
        assert {member: 1}[FileEventType[member.name]] == 1
    assert len(set(FileEventType)) == len(list(FileEventType))
    assert FileEventType.CLOSE_WRITE not in {FileEventType.CLOSE_NOWRITE}


def test_every_delivered_event_carries_its_joined_path(monkeypatch):
    """Over the whole hijack golden run, ``path`` is the join of
    ``directory`` and ``name`` for every event any observer receives."""
    delivered = []
    dispatch = FileObserver._dispatch

    def recording(self, event):
        delivered.append(event)
        dispatch(self, event)

    monkeypatch.setattr(FileObserver, "_dispatch", recording)
    spec, _records = WATCHED_GOLDENS["hijack_s7x3"]
    run_fleet(spec, shards=3, backend="serial", progress=NullProgress())
    assert len(delivered) > 1000
    for event in delivered:
        assert event.path == posixpath.join(event.directory, event.name)


# -- Caller freshness ----------------------------------------------------------


class Reader(App):
    package = "com.reader"


def install_reader(system, *permissions):
    apk = ApkBuilder("com.reader").uses_permission(*permissions).build(DEV)
    system.install_user_app(apk)
    app = Reader()
    system.attach(app)
    return app


def test_silent_same_group_grant_shows_in_the_next_caller(system):
    """Section III-A's loophole: READ held, WRITE requested silently."""
    app = install_reader(system, READ_EXTERNAL_STORAGE)
    before = app.caller
    assert not before.has_permission(WRITE_EXTERNAL_STORAGE)
    assert app.caller is before  # unchanged state reuses the principal
    permissions = system.pms.require_package(app.package).permissions
    assert permissions.request(WRITE_EXTERNAL_STORAGE, user_approves=False)
    after = app.caller
    assert after.has_permission(WRITE_EXTERNAL_STORAGE)
    assert not before.has_permission(WRITE_EXTERNAL_STORAGE)
    system.fs.makedirs("/sdcard/reader", system.system_caller)
    app.write_file("/sdcard/reader/f", b"ok")


def test_reinstall_under_a_new_uid_yields_that_uid(system):
    app = install_reader(system, READ_EXTERNAL_STORAGE)
    old_uid = app.caller.uid
    system.pms.uninstall_package(app.package, system.system_caller)
    install_reader(system, READ_EXTERNAL_STORAGE)
    new_uid = system.pms.require_package(app.package).uid
    assert new_uid != old_uid
    assert app.caller.uid == new_uid
