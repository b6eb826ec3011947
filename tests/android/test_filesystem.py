"""Tests for the in-memory VFS: paths, symlinks, events, DAC hooks."""

import pytest

from repro.errors import (
    AccessDenied,
    FileExists,
    FileNotFound,
    FilesystemError,
    IsADirectory,
    NotADirectory,
    StorageFull,
    SymlinkLoop,
)
from repro.android.filesystem import (
    Caller,
    FileEventType,
    Filesystem,
    NodeKind,
    SYSTEM_CALLER,
    normalize,
    split,
)
from repro.android.storage import StorageVolume
from repro.sim.events import EventHub
from repro.sim.kernel import Kernel

ALICE = Caller(uid=10001, package="com.alice")
BOB = Caller(uid=10002, package="com.bob")


@pytest.fixture
def fs():
    kernel = Kernel()
    filesystem = Filesystem(EventHub(kernel), kernel.clock)
    filesystem.kernel = kernel  # test hook for draining events
    return filesystem


def drain(fs):
    fs.kernel.run()


# -- paths ------------------------------------------------------------------


def test_normalize_requires_absolute():
    with pytest.raises(FilesystemError):
        normalize("relative/path")


def test_normalize_collapses_dots():
    assert normalize("/a/b/../c/./d") == "/a/c/d"


def test_split_basename():
    assert split("/a/b/c.txt") == ("/a/b", "c.txt")


# -- directories and files --------------------------------------------------


def test_makedirs_and_listdir(fs):
    fs.makedirs("/data/app", SYSTEM_CALLER)
    assert fs.listdir("/data") == ["app"]


def test_makedirs_idempotent(fs):
    fs.makedirs("/x/y", ALICE)
    fs.makedirs("/x/y", ALICE)
    assert fs.exists("/x/y")


def test_create_and_read_roundtrip(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f.txt", ALICE, b"content")
    assert fs.read_bytes("/d/f.txt", ALICE) == b"content"


def test_create_exclusive_rejects_existing(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    with pytest.raises(FileExists):
        fs.create("/d/f", ALICE)


def test_create_in_missing_directory(fs):
    with pytest.raises(FileNotFound):
        fs.create("/missing/f", ALICE)


def test_create_under_file_raises_notadirectory(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    with pytest.raises(NotADirectory):
        fs.create("/d/f/child", ALICE)


def test_read_missing_file(fs):
    with pytest.raises(FileNotFound):
        fs.read_bytes("/nope", ALICE)


def test_open_directory_rejected(fs):
    fs.makedirs("/d", ALICE)
    with pytest.raises(IsADirectory):
        fs.open("/d", ALICE)


def test_listdir_on_file_rejected(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    with pytest.raises(NotADirectory):
        fs.listdir("/d/f")


def test_unlink_removes_file(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    fs.unlink("/d/f", ALICE)
    assert not fs.exists("/d/f")


def test_unlink_directory_rejected(fs):
    fs.makedirs("/d", ALICE)
    with pytest.raises(IsADirectory):
        fs.unlink("/d", ALICE)


def test_write_bytes_overwrites(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"old")
    fs.write_bytes("/d/f", ALICE, b"new")
    assert fs.read_bytes("/d/f", ALICE) == b"new"


def test_stat_reports_metadata(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"12345", mode=0o640)
    info = fs.stat("/d/f")
    assert info.size == 5
    assert info.mode == 0o640
    assert info.owner_uid == ALICE.uid
    assert info.kind is NodeKind.FILE


def test_walk_visits_everything(fs):
    fs.makedirs("/d/sub", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    fs.write_bytes("/d/sub/g", ALICE, b"2")
    paths = [path for path, _node in fs.walk("/d")]
    assert set(paths) == {"/d", "/d/f", "/d/sub", "/d/sub/g"}


# -- rename -------------------------------------------------------------------


def test_rename_moves_content(fs):
    fs.makedirs("/a", ALICE)
    fs.makedirs("/b", ALICE)
    fs.write_bytes("/a/f", ALICE, b"data")
    fs.rename("/a/f", "/b/g", ALICE)
    assert not fs.exists("/a/f")
    assert fs.read_bytes("/b/g", ALICE) == b"data"


def test_rename_over_existing_replaces(fs):
    fs.makedirs("/a", ALICE)
    fs.write_bytes("/a/src", ALICE, b"new")
    fs.write_bytes("/a/dst", ALICE, b"old")
    fs.rename("/a/src", "/a/dst", ALICE)
    assert fs.read_bytes("/a/dst", ALICE) == b"new"


# -- symlinks ------------------------------------------------------------------


def test_symlink_resolution(fs):
    fs.makedirs("/real", ALICE)
    fs.write_bytes("/real/f", ALICE, b"target")
    fs.symlink("/link", "/real/f", ALICE)
    assert fs.read_bytes("/link", ALICE) == b"target"


def test_symlink_to_directory_traversal(fs):
    fs.makedirs("/real/sub", ALICE)
    fs.write_bytes("/real/sub/f", ALICE, b"x")
    fs.symlink("/alias", "/real", ALICE)
    assert fs.read_bytes("/alias/sub/f", ALICE) == b"x"


def test_retarget_symlink_changes_resolution(fs):
    fs.makedirs("/a", ALICE)
    fs.makedirs("/b", ALICE)
    fs.write_bytes("/a/f", ALICE, b"A")
    fs.write_bytes("/b/f", ALICE, b"B")
    fs.symlink("/link", "/a/f", ALICE)
    assert fs.read_bytes("/link", ALICE) == b"A"
    fs.retarget_symlink("/link", "/b/f", ALICE)
    assert fs.read_bytes("/link", ALICE) == b"B"


def test_retarget_requires_ownership(fs):
    fs.makedirs("/a", ALICE)
    fs.write_bytes("/a/f", ALICE, b"A")
    fs.symlink("/link", "/a/f", ALICE)
    with pytest.raises(AccessDenied):
        fs.retarget_symlink("/link", "/a/f", BOB)


def test_readlink_returns_target(fs):
    fs.makedirs("/a", ALICE)
    fs.symlink("/link", "/a/f", ALICE)
    assert fs.readlink("/link") == "/a/f"


def test_readlink_on_regular_file_rejected(fs):
    fs.makedirs("/a", ALICE)
    fs.write_bytes("/a/f", ALICE, b"1")
    with pytest.raises(FilesystemError):
        fs.readlink("/a/f")


def test_is_symlink(fs):
    fs.makedirs("/a", ALICE)
    fs.write_bytes("/a/f", ALICE, b"1")
    fs.symlink("/link", "/a/f", ALICE)
    assert fs.is_symlink("/link")
    assert not fs.is_symlink("/a/f")
    assert not fs.is_symlink("/missing")


def test_symlink_loop_detected(fs):
    fs.symlink("/one", "/two", ALICE)
    fs.symlink("/two", "/one", ALICE)
    with pytest.raises(SymlinkLoop):
        fs.read_bytes("/one", ALICE)


def test_resolve_physical_follows_chain(fs):
    fs.makedirs("/real", ALICE)
    fs.write_bytes("/real/f", ALICE, b"1")
    fs.symlink("/l1", "/real/f", ALICE)
    fs.symlink("/l2", "/l1", ALICE)
    assert fs.resolve_physical("/l2") == "/real/f"


# -- chmod / chown -------------------------------------------------------------


def test_chmod_by_owner(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    fs.chmod("/d/f", 0o600, ALICE)
    assert fs.stat("/d/f").mode == 0o600


def test_chmod_by_other_rejected(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    with pytest.raises(AccessDenied):
        fs.chmod("/d/f", 0o777, BOB)


def test_chown_requires_system(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    with pytest.raises(AccessDenied):
        fs.chown("/d/f", BOB.uid, ALICE)
    fs.chown("/d/f", BOB.uid, SYSTEM_CALLER)
    assert fs.stat("/d/f").owner_uid == BOB.uid


# -- volume accounting -----------------------------------------------------------


def test_volume_full_rejects_write(fs):
    volume = StorageVolume("tiny", capacity_bytes=10)
    fs.mount("/tiny", volume)
    with pytest.raises(StorageFull):
        fs.write_bytes("/tiny/big", ALICE, b"x" * 11)


def test_volume_released_on_unlink(fs):
    volume = StorageVolume("tiny", capacity_bytes=10)
    fs.mount("/tiny", volume)
    fs.write_bytes("/tiny/f", ALICE, b"x" * 10)
    assert volume.free_bytes == 0
    fs.unlink("/tiny/f", ALICE)
    assert volume.free_bytes == 10
    fs.write_bytes("/tiny/g", ALICE, b"y" * 10)


def test_mount_for_picks_most_specific(fs):
    outer = StorageVolume("outer", 100)
    inner = StorageVolume("inner", 100)
    fs.mount("/m", outer)
    fs.mount("/m/inner", inner)
    assert fs.mount_for("/m/inner/f").volume is inner
    assert fs.mount_for("/m/f").volume is outer
    assert fs.mount_for("/elsewhere") is None


# -- events -----------------------------------------------------------------------


def collect_events(fs, directory):
    seen = []
    fs._hub.subscribe(f"fs:{directory}", seen.append)
    return seen


def test_write_emits_create_open_modify_close_write(fs):
    fs.makedirs("/d", ALICE)
    seen = collect_events(fs, "/d")
    fs.write_bytes("/d/f", ALICE, b"1")
    drain(fs)
    assert [event.event_type for event in seen] == [
        FileEventType.CREATE,
        FileEventType.OPEN,
        FileEventType.MODIFY,
        FileEventType.CLOSE_WRITE,
    ]


def test_read_emits_open_access_close_nowrite(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    seen = collect_events(fs, "/d")
    fs.read_bytes("/d/f", ALICE)
    drain(fs)
    assert [event.event_type for event in seen] == [
        FileEventType.OPEN,
        FileEventType.ACCESS,
        FileEventType.CLOSE_NOWRITE,
    ]


def test_quiet_read_emits_nothing(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    seen = collect_events(fs, "/d")
    fs.read_bytes("/d/f", ALICE, quiet=True)
    drain(fs)
    assert seen == []


def test_rename_emits_moved_from_and_to(fs):
    fs.makedirs("/a", ALICE)
    fs.makedirs("/b", ALICE)
    fs.write_bytes("/a/f", ALICE, b"1")
    seen_src = collect_events(fs, "/a")
    seen_dst = collect_events(fs, "/b")
    fs.rename("/a/f", "/b/f", ALICE)
    drain(fs)
    assert FileEventType.MOVED_FROM in [event.event_type for event in seen_src]
    assert [event.event_type for event in seen_dst] == [FileEventType.MOVED_TO]


def test_unlink_emits_delete(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    seen = collect_events(fs, "/d")
    fs.unlink("/d/f", ALICE)
    drain(fs)
    assert [event.event_type for event in seen] == [FileEventType.DELETE]


def test_event_carries_path_and_time(fs):
    fs.makedirs("/d", ALICE)
    seen = collect_events(fs, "/d")
    fs.kernel.clock.advance_to(777)
    fs.write_bytes("/d/f", ALICE, b"1")
    drain(fs)
    assert seen[0].path == "/d/f"
    assert seen[0].time_ns == 777


def test_close_is_idempotent(fs):
    fs.makedirs("/d", ALICE)
    seen = collect_events(fs, "/d")
    handle = fs.create("/d/f", ALICE)
    handle.write(b"1")
    handle.close()
    handle.close()
    drain(fs)
    close_events = [e for e in seen if e.event_type is FileEventType.CLOSE_WRITE]
    assert len(close_events) == 1


def test_io_on_closed_handle_rejected(fs):
    fs.makedirs("/d", ALICE)
    handle = fs.create("/d/f", ALICE)
    handle.close()
    with pytest.raises(FilesystemError):
        handle.read()


def test_write_on_readonly_handle_rejected(fs):
    fs.makedirs("/d", ALICE)
    fs.write_bytes("/d/f", ALICE, b"1")
    handle = fs.open("/d/f", ALICE, writable=False)
    with pytest.raises(AccessDenied):
        handle.write(b"2")


def test_cross_volume_rename_moves_the_accounting(fs):
    src_volume = StorageVolume("src", capacity_bytes=100)
    dst_volume = StorageVolume("dst", capacity_bytes=100)
    fs.mount("/srcvol", src_volume)
    fs.mount("/dstvol", dst_volume)
    fs.write_bytes("/srcvol/f", ALICE, b"x" * 40)
    assert src_volume.used_bytes == 40
    fs.rename("/srcvol/f", "/dstvol/f", ALICE)
    assert src_volume.used_bytes == 0
    assert dst_volume.used_bytes == 40


def test_cross_volume_rename_respects_destination_capacity(fs):
    src_volume = StorageVolume("src", capacity_bytes=100)
    tiny = StorageVolume("dst", capacity_bytes=10)
    fs.mount("/srcvol2", src_volume)
    fs.mount("/dstvol2", tiny)
    fs.write_bytes("/srcvol2/f", ALICE, b"x" * 40)
    with pytest.raises(StorageFull):
        fs.rename("/srcvol2/f", "/dstvol2/f", ALICE)
    # The failed move leaves the source intact and accounted.
    assert fs.exists("/srcvol2/f")
    assert src_volume.used_bytes == 40


# -- resolution caching -------------------------------------------------------

def test_resolution_cache_sees_retargeted_symlinks(fs):
    fs.makedirs("/data", SYSTEM_CALLER)
    fs.write_bytes("/data/a.txt", SYSTEM_CALLER, b"A", mode=0o644)
    fs.write_bytes("/data/b.txt", SYSTEM_CALLER, b"B", mode=0o644)
    fs.symlink("/data/link", "/data/a.txt", SYSTEM_CALLER)
    # Warm the cache through the link, then re-point it (the TOCTOU
    # primitive): the next resolution must follow the new target.
    assert fs.read_bytes("/data/link", SYSTEM_CALLER) == b"A"
    fs.retarget_symlink("/data/link", "/data/b.txt", SYSTEM_CALLER)
    assert fs.read_bytes("/data/link", SYSTEM_CALLER) == b"B"


def test_resolution_cache_sees_renames_and_unlinks(fs):
    fs.makedirs("/data", SYSTEM_CALLER)
    fs.write_bytes("/data/old.txt", SYSTEM_CALLER, b"X", mode=0o644)
    assert fs.read_bytes("/data/old.txt", SYSTEM_CALLER) == b"X"  # warm
    fs.rename("/data/old.txt", "/data/new.txt", SYSTEM_CALLER)
    with pytest.raises(FileNotFound):
        fs.read_bytes("/data/old.txt", SYSTEM_CALLER)
    assert fs.read_bytes("/data/new.txt", SYSTEM_CALLER) == b"X"
    fs.unlink("/data/new.txt", SYSTEM_CALLER)
    with pytest.raises(FileNotFound):
        fs.read_bytes("/data/new.txt", SYSTEM_CALLER)


def test_mount_cache_survives_policy_swaps(fs):
    from repro.android.filesystem import AccessPolicy

    volume = StorageVolume(name="data", capacity_bytes=1 << 20)
    fs.mount("/data", volume)
    first = fs.mount_for("/data/file")  # warm the mount cache
    replacement = AccessPolicy()
    fs.set_policy("/data", replacement)
    # set_policy swaps the policy on the mount object itself, so the
    # cached entry must expose the new policy.
    assert fs.mount_for("/data/file") is first
    assert first.policy is replacement


def test_rename_directory_beneath_itself_is_rejected(fs):
    fs.makedirs("/a/b", ALICE)
    fs.write_bytes("/a/b/f", ALICE, b"data")
    seen = collect_events(fs, "*")
    with pytest.raises(FilesystemError) as info:
        fs.rename("/a", "/a/b/c", ALICE)
    assert not isinstance(info.value, (FileNotFound, IsADirectory))
    drain(fs)
    assert seen == []
    assert fs.listdir("/") == ["a"]
    assert fs.read_bytes("/a/b/f", ALICE) == b"data"
    assert not fs.exists("/a/b/c")


def test_rename_directory_beneath_itself_through_a_symlink_is_rejected(fs):
    fs.makedirs("/a/b", ALICE)
    fs.symlink("/link", "/a/b", ALICE)
    with pytest.raises(FilesystemError):
        fs.rename("/a", "/link/c", ALICE)
    assert fs.listdir("/") == ["a", "link"]


def test_rename_directory_to_a_sibling_prefix_is_allowed(fs):
    fs.makedirs("/a", ALICE)
    fs.makedirs("/ab", ALICE)
    fs.rename("/a", "/ab/a", ALICE)
    assert fs.listdir("/ab") == ["a"]


def test_rename_file_over_a_directory_raises_eisdir(fs):
    volume = StorageVolume("vol", capacity_bytes=100)
    fs.mount("/vol", volume)
    fs.makedirs("/vol/dir/sub", ALICE)
    fs.write_bytes("/vol/dir/sub/g", ALICE, b"y" * 30)
    fs.write_bytes("/vol/f", ALICE, b"x" * 10)
    assert volume.used_bytes == 40
    seen = collect_events(fs, "*")
    with pytest.raises(IsADirectory):
        fs.rename("/vol/f", "/vol/dir", ALICE)
    drain(fs)
    assert seen == []
    assert volume.used_bytes == 40
    assert fs.read_bytes("/vol/f", ALICE) == b"x" * 10
    assert fs.read_bytes("/vol/dir/sub/g", ALICE) == b"y" * 30


def test_rename_file_over_an_empty_directory_raises_eisdir(fs):
    fs.makedirs("/d/empty", ALICE)
    fs.write_bytes("/d/f", ALICE, b"x")
    with pytest.raises(IsADirectory):
        fs.rename("/d/f", "/d/empty", ALICE)
    assert fs.stat("/d/empty").kind is NodeKind.DIRECTORY


def test_rename_onto_itself_is_a_no_op(fs):
    volume = StorageVolume("vol", capacity_bytes=100)
    fs.mount("/same", volume)
    fs.write_bytes("/same/f", ALICE, b"x" * 10)
    fs.rename("/same/f", "/same/f", ALICE)
    assert fs.read_bytes("/same/f", ALICE) == b"x" * 10
    assert volume.used_bytes == 10
