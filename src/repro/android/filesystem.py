"""In-memory virtual filesystem with DAC, symlinks and inotify events.

The VFS is the battleground for the paper's Section III-B and III-C
attacks: installer apps download APKs here, attackers watch it through
:class:`~repro.android.fileobserver.FileObserver`, swap files in the
TOCTOU window, and re-point symbolic links under the Download Manager.

Access control is pluggable per mount: the internal storage mount uses
app-sandbox DAC (:class:`repro.android.storage.InternalStoragePolicy`),
while /sdcard is wrapped by the FUSE daemon policy
(:class:`repro.android.fuse.FuseDaemon`), which — like real Android —
*ignores* file modes and grants write to any holder of
``WRITE_EXTERNAL_STORAGE``.
"""

from __future__ import annotations

import enum
import itertools
import posixpath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

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
from repro.sim.events import EventHub

ROOT_UID = 0
SYSTEM_UID = 1000
FIRST_APP_UID = 10000

_MAX_SYMLINK_DEPTH = 16


class NodeKind(enum.Enum):
    """What an inode is."""

    FILE = "file"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


class FileEventType(enum.Enum):
    """inotify-style event types surfaced to FileObserver.

    The subset matches the events the paper's attack and the DAPP
    defense key on (Sections III-B and V-B).
    """

    CREATE = "CREATE"
    OPEN = "OPEN"
    ACCESS = "ACCESS"
    MODIFY = "MODIFY"
    CLOSE_WRITE = "CLOSE_WRITE"
    CLOSE_NOWRITE = "CLOSE_NOWRITE"
    MOVED_FROM = "MOVED_FROM"
    MOVED_TO = "MOVED_TO"
    DELETE = "DELETE"
    #: Synthesized when a bounded watch queue overflowed and events
    #: were lost — inotify's ``IN_Q_OVERFLOW`` (never emitted by the
    #: filesystem itself; see :class:`repro.sim.events.WatchLimits`).
    Q_OVERFLOW = "Q_OVERFLOW"

    # Members are singletons compared by identity, so identity hashing
    # agrees with ``==``; it replaces ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``) on every observer's count-dict update.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class FileEvent:
    """A filesystem notification delivered to watchers of a directory."""

    event_type: FileEventType
    directory: str
    name: str
    time_ns: int

    @cached_property
    def path(self) -> str:
        """Full path of the affected file.

        Events built by :meth:`Filesystem._emit` carry the emit's own
        canonical path already; only hand-built events compute it.
        """
        return posixpath.join(self.directory, self.name)


_object_new = object.__new__
_object_setattr = object.__setattr__


@dataclass(frozen=True)
class Caller:
    """Identity of the principal performing a filesystem operation."""

    uid: int
    package: str = ""
    permissions: frozenset = frozenset()
    is_system: bool = False

    def has_permission(self, permission: str) -> bool:
        """True if this caller holds ``permission`` (system holds all)."""
        return self.is_system or permission in self.permissions


SYSTEM_CALLER = Caller(uid=SYSTEM_UID, package="android", is_system=True)
ROOT_CALLER = Caller(uid=ROOT_UID, package="root", is_system=True)


class Inode:
    """A filesystem node: regular file, directory or symlink."""

    _ids = itertools.count(1)

    def __init__(self, kind: NodeKind, owner_uid: int, mode: int) -> None:
        self.inode_id = next(Inode._ids)
        self.kind = kind
        self.owner_uid = owner_uid
        self.mode = mode
        self.data = b""
        self.children: Dict[str, "Inode"] = {}
        self.symlink_target = ""
        self.created_ns = 0
        self.modified_ns = 0

    @property
    def size(self) -> int:
        """Size in bytes (0 for directories and symlinks)."""
        return len(self.data) if self.kind is NodeKind.FILE else 0

    def world_readable(self) -> bool:
        """True if the 'other read' mode bit is set."""
        return bool(self.mode & 0o004)

    def __repr__(self) -> str:
        return (
            f"Inode(id={self.inode_id}, kind={self.kind.value}, "
            f"uid={self.owner_uid}, mode={oct(self.mode)})"
        )


@dataclass(frozen=True)
class Stat:
    """Snapshot of an inode's metadata as returned by :meth:`Filesystem.stat`."""

    path: str
    kind: NodeKind
    owner_uid: int
    mode: int
    size: int
    inode_id: int
    created_ns: int
    modified_ns: int


class AccessPolicy:
    """Per-mount access control hook.

    The default policy is permissive; mounts install either the internal
    app-sandbox policy or the FUSE daemon.  Methods raise
    :class:`~repro.errors.AccessDenied` to veto an operation.
    """

    def on_create(self, fs: "Filesystem", caller: Caller, path: str, inode: Inode) -> None:
        """Called after a node is created (may adjust its mode/owner)."""

    def check_read(self, fs: "Filesystem", caller: Caller, path: str, inode: Inode) -> None:
        """Veto reads by raising AccessDenied."""

    def check_write(self, fs: "Filesystem", caller: Caller, path: str, inode: Inode) -> None:
        """Veto writes to an existing node."""

    def check_create(self, fs: "Filesystem", caller: Caller, path: str) -> None:
        """Veto creation of a new node at ``path``."""

    def check_delete(self, fs: "Filesystem", caller: Caller, path: str, inode: Inode) -> None:
        """Veto deletion."""

    def check_rename(self, fs: "Filesystem", caller: Caller, src: str, dst: str) -> None:
        """Veto a rename/move whose source resolves inside this mount."""


@dataclass
class Mount:
    """A mounted volume: path prefix, space accounting, access policy."""

    prefix: str
    volume: "object"
    policy: AccessPolicy = field(default_factory=AccessPolicy)


@lru_cache(maxsize=16384)
def normalize(path: str) -> str:
    """Normalize a path to an absolute, '..'-free canonical form.

    Pure string → string, so the result is memoized: simulated devices
    touch the same handful of paths thousands of times per campaign,
    and ``posixpath.normpath`` dominated the VFS profile before the
    cache (``tools/bench.py --profile``).
    """
    if not path.startswith("/"):
        raise FilesystemError(path, "paths must be absolute")
    return posixpath.normpath(path)


@lru_cache(maxsize=16384)
def split(path: str) -> Tuple[str, str]:
    """Split a normalized path into (parent-dir, basename). Memoized."""
    parent, name = posixpath.split(normalize(path))
    if not name:
        raise FilesystemError(path, "path has no final component")
    return parent, name


class FileHandle:
    """An open file; closing emits CLOSE_WRITE or CLOSE_NOWRITE.

    The distinction is exactly what the paper's attacker counts: an
    integrity-check pass over the APK produces CLOSE_NOWRITE events, and
    the end of the download produces CLOSE_WRITE.
    """

    def __init__(self, fs: "Filesystem", caller: Caller, path: str, inode: Inode,
                 writable: bool, quiet: bool = False) -> None:
        self._fs = fs
        self._caller = caller
        self.path = path
        self._inode = inode
        self.writable = writable
        self._wrote = False
        self.closed = False
        self._quiet = quiet

    def read(self) -> bytes:
        """Read the full contents; emits ACCESS."""
        self._ensure_open()
        self._fs._check_policy("read", self._caller, self.path, self._inode)
        if not self._quiet:
            self._fs._emit(self.path, FileEventType.ACCESS)
        return self._inode.data

    def write(self, data: bytes) -> None:
        """Replace contents; emits MODIFY and charges the volume."""
        self._ensure_open()
        if not self.writable:
            raise AccessDenied(self.path, "handle not opened for writing")
        self._fs._check_policy("write", self._caller, self.path, self._inode)
        self._fs._charge(self.path, len(data) - len(self._inode.data))
        self._inode.data = data
        self._inode.modified_ns = self._fs.now_ns
        self._wrote = True
        self._fs._emit(self.path, FileEventType.MODIFY)

    def append(self, data: bytes) -> None:
        """Append ``data`` (used by chunked downloads); emits MODIFY."""
        self.write(self._inode.data + data)

    def close(self) -> None:
        """Close and emit the matching CLOSE_* event. Idempotent."""
        if self.closed:
            return
        self.closed = True
        if self._quiet and not self._wrote:
            return
        event = FileEventType.CLOSE_WRITE if self._wrote else FileEventType.CLOSE_NOWRITE
        self._fs._emit(self.path, event)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self.closed:
            raise FilesystemError(self.path, "I/O on closed file handle")


class Filesystem:
    """The device-wide VFS: one instance per simulated device."""

    #: Cap on the per-device resolution/mount caches; cleared-on-full
    #: rather than evicted, since a simulated device touches a small,
    #: recurring set of paths.
    _CACHE_CAP = 32768

    def __init__(self, hub: EventHub, clock) -> None:
        self._hub = hub
        self._clock = clock
        self.root = Inode(NodeKind.DIRECTORY, ROOT_UID, 0o755)
        self._mounts: List[Mount] = []
        # (prefix, prefix + "/", mount) in longest-prefix-first order,
        # so mount_for avoids re-allocating the slashed prefix per call.
        self._mount_index: List[Tuple[str, str, Mount]] = []
        # (path, follow_last) -> (resolved, inode), valid until the
        # next structural mutation (create/unlink/rename/symlink/
        # makedirs/retarget).  Data writes leave the tree shape — and
        # therefore the cache — untouched.
        self._resolve_cache: Dict[Tuple[str, bool], Tuple[str, Inode]] = {}
        # path -> mount (or None), valid until the mount table changes.
        self._mount_cache: Dict[str, Optional[Mount]] = {}
        # directory -> its ``fs:<directory>`` watch topic.
        self._fs_topics: Dict[str, str] = {}

    # -- time ---------------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current simulated time."""
        return self._clock.now_ns

    # -- mounts -------------------------------------------------------------

    def mount(self, prefix: str, volume: object, policy: Optional[AccessPolicy] = None) -> Mount:
        """Attach ``volume`` (space accounting) and ``policy`` under ``prefix``."""
        prefix = normalize(prefix)
        self.makedirs(prefix, SYSTEM_CALLER)
        mount = Mount(prefix=prefix, volume=volume, policy=policy or AccessPolicy())
        self._mounts.append(mount)
        self._mounts.sort(key=lambda m: len(m.prefix), reverse=True)
        self._mount_index = [(m.prefix, m.prefix + "/", m)
                             for m in self._mounts]
        self._mount_cache.clear()
        return mount

    def mount_for(self, path: str) -> Optional[Mount]:
        """The most specific mount whose prefix contains ``path``, if any.

        Memoized per path: the mount table changes only at provisioning
        time, while policy checks and space accounting look mounts up
        on every file operation.  (``set_policy`` swaps the policy *on*
        the cached mount object, so cached entries stay correct.)
        """
        cache = self._mount_cache
        try:
            return cache[path]
        except KeyError:
            pass
        normalized = normalize(path)
        found = None
        for prefix, prefix_slash, mount in self._mount_index:
            if normalized == prefix or normalized.startswith(prefix_slash):
                found = mount
                break
        if len(cache) >= self._CACHE_CAP:
            cache.clear()
        cache[path] = found
        return found

    def set_policy(self, prefix: str, policy: AccessPolicy) -> None:
        """Swap the access policy of the mount at ``prefix`` (defense install)."""
        for mount in self._mounts:
            if mount.prefix == normalize(prefix):
                mount.policy = policy
                return
        raise FileNotFound(prefix)

    # -- resolution ---------------------------------------------------------

    def _resolve(self, path: str,
                 follow_last: bool = True) -> Tuple[str, Inode]:
        """Resolve ``path`` to (physical-path, inode), following symlinks.

        Successful resolutions are cached until the next structural
        mutation (:meth:`_invalidate_resolution`): installs re-resolve
        the same handful of paths for every open/read/stat, and the
        tree shape changes far less often than it is read.
        """
        key = (path, follow_last)
        cache = self._resolve_cache
        result = cache.get(key)
        if result is None:
            result = self._resolve_walk(path, follow_last, 0)
            if len(cache) >= self._CACHE_CAP:
                cache.clear()
            cache[key] = result
        return result

    def _invalidate_resolution(self) -> None:
        """Drop cached resolutions after a tree-shape mutation."""
        if self._resolve_cache:
            self._resolve_cache.clear()

    def _resolve_walk(self, path: str, follow_last: bool,
                      _depth: int) -> Tuple[str, Inode]:
        if _depth > _MAX_SYMLINK_DEPTH:
            raise SymlinkLoop(path)
        path = normalize(path)
        node = self.root
        resolved = "/"
        parts = [part for part in path.split("/") if part]
        last = len(parts) - 1
        for index, part in enumerate(parts):
            if node.kind is not NodeKind.DIRECTORY:
                raise NotADirectory(resolved)
            child = node.children.get(part)
            if child is None:
                raise FileNotFound(posixpath.join(resolved, part))
            # ``resolved`` is canonical and ``part`` is one component,
            # so plain concatenation equals posixpath.join at a
            # fraction of the cost (this loop is the VFS hot path).
            resolved = "/" + part if resolved == "/" else resolved + "/" + part
            if child.kind is NodeKind.SYMLINK and (follow_last or index != last):
                remainder = parts[index + 1:]
                target = child.symlink_target
                if remainder:
                    target = posixpath.join(target, *remainder)
                return self._resolve_walk(target, follow_last, _depth + 1)
            node = child
        return resolved, node

    def resolve_physical(self, path: str) -> str:
        """Fully resolve symlinks and return the physical path."""
        resolved, _node = self._resolve(path, follow_last=True)
        return resolved

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves to an existing node."""
        try:
            self._resolve(path)
            return True
        except FilesystemError:
            return False

    def is_symlink(self, path: str) -> bool:
        """True if the final component of ``path`` is a symlink."""
        try:
            _resolved, node = self._resolve(path, follow_last=False)
        except FilesystemError:
            return False
        return node.kind is NodeKind.SYMLINK

    def readlink(self, path: str) -> str:
        """Target of the symlink at ``path`` (no resolution of the target)."""
        _resolved, node = self._resolve(path, follow_last=False)
        if node.kind is not NodeKind.SYMLINK:
            raise FilesystemError(path, "not a symlink")
        return node.symlink_target

    def stat(self, path: str, follow: bool = True) -> Stat:
        """Metadata snapshot of the node at ``path``."""
        resolved, node = self._resolve(path, follow_last=follow)
        return Stat(
            path=resolved,
            kind=node.kind,
            owner_uid=node.owner_uid,
            mode=node.mode,
            size=node.size,
            inode_id=node.inode_id,
            created_ns=node.created_ns,
            modified_ns=node.modified_ns,
        )

    def listdir(self, path: str) -> List[str]:
        """Sorted child names of the directory at ``path``."""
        _resolved, node = self._resolve(path)
        if node.kind is not NodeKind.DIRECTORY:
            raise NotADirectory(path)
        return sorted(node.children)

    def walk(self, path: str) -> Iterator[Tuple[str, Inode]]:
        """Depth-first (path, inode) traversal below ``path``."""
        resolved, node = self._resolve(path)
        stack: List[Tuple[str, Inode]] = [(resolved, node)]
        while stack:
            current_path, current = stack.pop()
            yield current_path, current
            if current.kind is NodeKind.DIRECTORY:
                for name in sorted(current.children, reverse=True):
                    stack.append((posixpath.join(current_path, name), current.children[name]))

    # -- mutation -----------------------------------------------------------

    def makedirs(self, path: str, caller: Caller, mode: int = 0o755) -> None:
        """Create directory ``path`` and any missing ancestors."""
        path = normalize(path)
        node = self.root
        built = "/"
        for part in [p for p in path.split("/") if p]:
            built = posixpath.join(built, part)
            child = node.children.get(part)
            if child is None:
                child = Inode(NodeKind.DIRECTORY, caller.uid, mode)
                child.created_ns = self.now_ns
                node.children[part] = child
                self._invalidate_resolution()
            elif child.kind is NodeKind.SYMLINK:
                built, child = self._resolve(built)
            elif child.kind is not NodeKind.DIRECTORY:
                raise NotADirectory(built)
            node = child

    def create(self, path: str, caller: Caller, mode: int = 0o600,
               exclusive: bool = True) -> FileHandle:
        """Create a file and return a writable handle; emits CREATE."""
        parent_path, name = split(path)
        _resolved_parent, parent = self._resolve(parent_path)
        if parent.kind is not NodeKind.DIRECTORY:
            raise NotADirectory(parent_path)
        full = posixpath.join(_resolved_parent, name)
        existing = parent.children.get(name)
        if existing is not None:
            if exclusive:
                raise FileExists(full)
            return self.open(full, caller, writable=True)
        self._check_policy("create", caller, full, None)
        inode = Inode(NodeKind.FILE, caller.uid, mode)
        inode.created_ns = self.now_ns
        inode.modified_ns = self.now_ns
        parent.children[name] = inode
        self._invalidate_resolution()
        mount = self.mount_for(full)
        if mount is not None:
            mount.policy.on_create(self, caller, full, inode)
        self._emit(full, FileEventType.CREATE)
        handle = FileHandle(self, caller, full, inode, writable=True)
        self._emit(full, FileEventType.OPEN)
        return handle

    def open(self, path: str, caller: Caller, writable: bool = False,
             quiet: bool = False) -> FileHandle:
        """Open an existing file; emits OPEN. Policy checked per read/write.

        ``quiet=True`` suppresses the read-side events (OPEN / ACCESS /
        CLOSE_NOWRITE).  It exists for the DAPP defense's signature
        grab: on real Android DAPP's own reads would add events to the
        very stream the attacker fingerprints — an incidental
        interference that is not the defense mechanism the paper
        evaluates, so we keep the streams independent (see DESIGN.md).
        """
        resolved, node = self._resolve(path)
        if node.kind is NodeKind.DIRECTORY:
            raise IsADirectory(resolved)
        if writable:
            self._check_policy("write", caller, resolved, node)
        else:
            self._check_policy("read", caller, resolved, node)
        if not quiet:
            self._emit(resolved, FileEventType.OPEN)
        return FileHandle(self, caller, resolved, node, writable=writable, quiet=quiet)

    def read_bytes(self, path: str, caller: Caller, quiet: bool = False) -> bytes:
        """Open, read fully and close (OPEN/ACCESS/CLOSE_NOWRITE)."""
        with self.open(path, caller, quiet=quiet) as handle:
            return handle.read()

    def write_bytes(self, path: str, caller: Caller, data: bytes,
                    mode: int = 0o600) -> None:
        """Create-or-truncate ``path`` with ``data`` and close it."""
        if self.exists(path):
            handle = self.open(path, caller, writable=True)
        else:
            handle = self.create(path, caller, mode=mode)
        with handle:
            handle.write(data)

    def symlink(self, link_path: str, target: str, caller: Caller) -> None:
        """Create a symbolic link at ``link_path`` pointing to ``target``."""
        parent_path, name = split(link_path)
        _resolved_parent, parent = self._resolve(parent_path)
        full = posixpath.join(_resolved_parent, name)
        if name in parent.children:
            raise FileExists(full)
        self._check_policy("create", caller, full, None)
        inode = Inode(NodeKind.SYMLINK, caller.uid, 0o777)
        inode.symlink_target = normalize(target)
        inode.created_ns = self.now_ns
        parent.children[name] = inode
        self._invalidate_resolution()
        self._emit(full, FileEventType.CREATE)

    def retarget_symlink(self, link_path: str, new_target: str, caller: Caller) -> None:
        """Re-point an existing symlink — the Download Manager TOCTOU primitive.

        Only the symlink's owner (or system) may re-point it.
        """
        resolved, node = self._resolve(link_path, follow_last=False)
        if node.kind is not NodeKind.SYMLINK:
            raise FilesystemError(link_path, "not a symlink")
        if caller.uid not in (node.owner_uid, ROOT_UID) and not caller.is_system:
            raise AccessDenied(link_path, "not the symlink owner")
        node.symlink_target = normalize(new_target)
        node.modified_ns = self.now_ns
        self._invalidate_resolution()

    def unlink(self, path: str, caller: Caller) -> None:
        """Delete a file or symlink; emits DELETE."""
        resolved, node = self._resolve(path, follow_last=False)
        if node.kind is NodeKind.DIRECTORY:
            raise IsADirectory(resolved)
        self._check_policy("delete", caller, resolved, node)
        parent_path, name = split(resolved)
        _parent_resolved, parent = self._resolve(parent_path)
        del parent.children[name]
        self._invalidate_resolution()
        self._charge(resolved, -node.size)
        self._emit(resolved, FileEventType.DELETE)

    def rename(self, src: str, dst: str, caller: Caller) -> None:
        """Move ``src`` to ``dst``; emits MOVED_FROM then MOVED_TO.

        The MOVED_TO event at the destination directory is how the
        paper's DAPP defense notices "move a file to replace
        target_apk" (Section V-B).

        Raises:
            FilesystemError: ``src`` is a directory and ``dst`` lies
                beneath it.
            IsADirectory: ``dst`` is a directory and ``src`` is not
                (POSIX ``EISDIR``).
        """
        src_resolved, node = self._resolve(src, follow_last=False)
        dst = normalize(dst)
        src_mount = self.mount_for(src_resolved)
        if src_mount is not None:
            src_mount.policy.check_rename(self, caller, src_resolved, dst)
        dst_mount = self.mount_for(dst)
        if dst_mount is not None and dst_mount is not src_mount:
            dst_mount.policy.check_rename(self, caller, src_resolved, dst)
        if self.exists(dst):
            self._check_policy("write", caller, dst, self._resolve(dst)[1])
        else:
            self._check_policy("create", caller, dst)
        src_parent_path, src_name = split(src_resolved)
        _sp, src_parent = self._resolve(src_parent_path)
        dst_parent_path, dst_name = split(dst)
        dst_parent_resolved, dst_parent = self._resolve(dst_parent_path)
        if dst_parent.kind is not NodeKind.DIRECTORY:
            raise NotADirectory(dst_parent_path)
        moving_dir = node.kind is NodeKind.DIRECTORY
        if moving_dir and (dst_parent_resolved + "/").startswith(
                src_resolved + "/"):
            raise FilesystemError(
                dst, f"cannot move directory {src_resolved} beneath itself")
        replaced = dst_parent.children.get(dst_name)
        if replaced is node:
            replaced = None  # renamed onto itself
        if (replaced is not None and not moving_dir
                and replaced.kind is NodeKind.DIRECTORY):
            raise IsADirectory(dst)
        if src_mount is not dst_mount:
            # Cross-volume move: the bytes leave one volume's accounting
            # and must fit on (and be charged to) the other.
            self._charge(dst, node.size)
            self._charge(src_resolved, -node.size)
        del src_parent.children[src_name]
        if replaced is not None:
            self._charge(dst, -replaced.size)
        dst_parent.children[dst_name] = node
        node.modified_ns = self.now_ns
        self._invalidate_resolution()
        self._emit(src_resolved, FileEventType.MOVED_FROM)
        self._emit(dst, FileEventType.MOVED_TO)

    def chmod(self, path: str, mode: int, caller: Caller) -> None:
        """Change mode bits; only the owner or system may chmod."""
        resolved, node = self._resolve(path)
        if caller.uid != node.owner_uid and not caller.is_system:
            raise AccessDenied(resolved, "chmod requires ownership")
        node.mode = mode

    def chown(self, path: str, uid: int, caller: Caller) -> None:
        """Change ownership; restricted to system."""
        resolved, node = self._resolve(path)
        if not caller.is_system:
            raise AccessDenied(resolved, "chown requires system")
        node.owner_uid = uid

    # -- internals ----------------------------------------------------------

    def _check_policy(self, op: str, caller: Caller, path: str,
                      inode: Optional[Inode] = None) -> None:
        mount = self.mount_for(path)
        if mount is None:
            return
        policy = mount.policy
        if op == "read":
            policy.check_read(self, caller, path, inode)
        elif op == "write":
            policy.check_write(self, caller, path, inode)
        elif op == "create":
            policy.check_create(self, caller, path)
        elif op == "delete":
            policy.check_delete(self, caller, path, inode)

    def _charge(self, path: str, delta_bytes: int) -> None:
        mount = self.mount_for(path)
        if mount is None or delta_bytes == 0:
            return
        volume = mount.volume
        charge = getattr(volume, "charge", None)
        if charge is not None and not charge(delta_bytes):
            raise StorageFull(path)

    def _emit(self, path: str, event_type: FileEventType) -> None:
        # Fast path: on a device with no filesystem watcher at all
        # (no FileObserver, no DAPP — every benign fleet shard), skip
        # the split and the event construction entirely.  Watchers
        # registered *after* an emit would not have seen the event
        # anyway, so the skip is invisible to every subscriber.
        hub = self._hub
        if not hub.namespace_active("fs"):
            return
        directory, name = split(path)
        topics = self._fs_topics
        topic = topics.get(directory)
        if topic is None:
            if len(topics) >= self._CACHE_CAP:
                topics.clear()
            topic = topics[directory] = "fs:" + directory
        # One event per emit, built without the frozen dataclass's
        # per-field ``object.__setattr__``; every call site passes a
        # canonical path, which pre-fills the cached ``path``.
        event = _object_new(FileEvent)
        _object_setattr(event, "__dict__", {
            "event_type": event_type, "directory": directory, "name": name,
            "time_ns": self._clock.now_ns, "path": path,
        })
        hub.publish(topic, event)
        hub.publish("fs:*", event)
