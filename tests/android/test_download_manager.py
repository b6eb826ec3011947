"""Tests for the AOSP Download Manager and its symlink handling."""

import pytest

from repro.errors import DownloadDestinationError, DownloadError
from repro.android.device import nexus5, xiaomi_mi4
from repro.android.download_manager import (
    DM_DATABASE_PATH,
    DownloadStatus,
    SymlinkMode,
)
from repro.android.filesystem import Caller
from repro.android.permissions import WRITE_EXTERNAL_STORAGE
from repro.android.system import AndroidSystem
from repro.android.apk import ApkBuilder
from repro.android.signing import SigningKey

URL = "http://cdn.example/file.bin"
CONTENT = b"x" * 200_000


def make_system(profile=None):
    system = AndroidSystem(profile or nexus5())
    system.network.host(URL, CONTENT)
    apk = (
        ApkBuilder("com.client")
        .uses_permission(WRITE_EXTERNAL_STORAGE,
                         "android.permission.READ_EXTERNAL_STORAGE")
        .build(SigningKey("dev", "k"))
    )
    system.install_user_app(apk)
    return system, system.caller_for("com.client")


def test_download_to_sdcard(system=None):
    system, caller = make_system()
    download_id = system.dm.enqueue(caller, URL, "/sdcard/Download/f.bin")
    system.run()
    assert system.fs.read_bytes("/sdcard/Download/f.bin", caller) == CONTENT
    record = system.dm.query(caller, download_id)
    assert record.status is DownloadStatus.SUCCESSFUL
    assert record.bytes_so_far == len(CONTENT)


def test_download_takes_simulated_time():
    system, caller = make_system()
    system.dm.enqueue(caller, URL, "/sdcard/Download/f.bin")
    system.run()
    assert system.now_ns > 0


def test_destination_outside_sdcard_rejected():
    system, caller = make_system()
    with pytest.raises(DownloadDestinationError):
        system.dm.enqueue(caller, URL, "/data/data/com.other/f.bin")


def test_cache_destination_allowed():
    system, caller = make_system()
    system.fs.makedirs("/data/data/com.client/cache", system.system_caller)
    download_id = system.dm.enqueue(
        caller, URL, "/data/data/com.client/cache/f.bin"
    )
    assert download_id > 0


def test_404_marks_failed():
    system, caller = make_system()
    download_id = system.dm.enqueue(caller, "http://missing/x", "/sdcard/f")
    system.run()
    assert system.dm.query(caller, download_id).status is DownloadStatus.FAILED


def test_id_bound_to_requesting_package():
    system, caller = make_system()
    other_apk = (
        ApkBuilder("com.other").uses_permission(WRITE_EXTERNAL_STORAGE)
        .build(SigningKey("o", "k"))
    )
    system.install_user_app(other_apk)
    download_id = system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    with pytest.raises(DownloadError):
        system.dm.query(system.caller_for("com.other"), download_id)


def test_retrieve_returns_bytes():
    system, caller = make_system()
    download_id = system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    data = system.run_process(system.dm.retrieve(caller, download_id))
    assert data == CONTENT


def test_remove_deletes_file_and_record():
    system, caller = make_system()
    download_id = system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    path, unlinked = system.run_process(system.dm.remove(caller, download_id))
    assert unlinked
    assert not system.fs.exists("/sdcard/f.bin")
    with pytest.raises(DownloadError):
        system.dm.query(caller, download_id)


def test_completion_topic_announced():
    system, caller = make_system()
    download_id = system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    seen = []
    system.hub.subscribe(system.dm.completion_topic(download_id), seen.append)
    system.run()
    assert len(seen) == 1
    assert seen[0].status is DownloadStatus.SUCCESSFUL


def test_database_file_exists_and_lists_downloads():
    system, caller = make_system()
    system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    raw = system.fs.read_bytes(DM_DATABASE_PATH, system.system_caller)
    assert URL.encode() in raw


def test_download_through_symlink_writes_physical_target():
    system, caller = make_system()
    system.fs.makedirs("/sdcard/mine", caller)
    system.fs.symlink("/sdcard/link", "/sdcard/mine/real.bin", caller)
    system.dm.enqueue(caller, URL, "/sdcard/link")
    system.run()
    assert system.fs.read_bytes("/sdcard/mine/real.bin", caller) == CONTENT


def test_lexical_mode_never_rechecks():
    system, caller = make_system(xiaomi_mi4())
    assert system.dm.symlink_mode is SymlinkMode.LEXICAL


def test_symlink_mode_by_android_version():
    from repro.android.device import nexus5_marshmallow
    assert AndroidSystem(nexus5_marshmallow()).dm.symlink_mode is (
        SymlinkMode.CHECK_THEN_USE
    )
    assert AndroidSystem(nexus5()).dm.symlink_mode is SymlinkMode.LEXICAL


def test_safe_mode_blocks_redirected_retrieve():
    system, caller = make_system()
    system.dm.symlink_mode = SymlinkMode.SAFE
    system.fs.makedirs("/sdcard/mine", caller)
    system.fs.symlink("/sdcard/link", "/sdcard/mine/real.bin", caller)
    download_id = system.dm.enqueue(caller, URL, "/sdcard/link")
    system.run()
    system.fs.retarget_symlink("/sdcard/link", "/data/secret", caller)
    with pytest.raises(DownloadDestinationError):
        system.run_process(system.dm.retrieve(caller, download_id))


def test_redownload_overwrites_existing():
    system, caller = make_system()
    system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    system.dm.enqueue(caller, URL, "/sdcard/f.bin")
    system.run()
    assert system.fs.read_bytes("/sdcard/f.bin", caller) == CONTENT
