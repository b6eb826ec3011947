"""The AOSP Download Manager (DM) — AIT Step 2, and its symlink TOCTOU.

The DM enforces the security policies the paper describes: it binds the
requesting app's package name to each download ID, and it authorizes the
destination path (must be under /sdcard or the app's cache folder).  The
vulnerability (Section III-C) is *where* the authorization looks:

- ``SymlinkMode.LEXICAL`` (Android 4.4): the destination string is
  checked textually at enqueue time.  A symlink that lexically lives on
  /sdcard can be re-pointed anywhere after the check; retrieve/remove
  then operate on the new physical target with the DM's own (system)
  privilege.
- ``SymlinkMode.CHECK_THEN_USE`` (Android 6.0): the DM resolves the
  symlink and authorizes the *physical* path right before each request —
  but a simulated scheduling gap remains between that check and the
  actual file operation, and an attacker flipping the link continuously
  can land in it.
- ``SymlinkMode.SAFE`` (the fix shipped after the paper's report): the
  physical path is resolved once and used atomically for both the check
  and the operation.
"""

from __future__ import annotations

import enum
import itertools
import json
import posixpath
from dataclasses import dataclass
from typing import Dict, Generator, Tuple

from repro.errors import (
    DownloadDestinationError,
    DownloadError,
    FilesystemError,
)
from repro.android.filesystem import Caller, Filesystem, SYSTEM_UID, split
from repro.android.network import Network
from repro.android.storage import StorageLayout
from repro.sim.events import EventHub
from repro.sim.kernel import Kernel, Sleep

ACTION_DOWNLOAD_COMPLETE = "android.intent.action.DOWNLOAD_COMPLETE"

DOWNLOAD_CHUNK_BYTES = 64 * 1024
# The window between the 6.0-style authorization check and the actual
# file operation (scheduling + FUSE round trip on a real device).
CHECK_TO_USE_GAP_NS = 200_000

_DM_DB_DIR = "/data/data/com.android.providers.downloads/databases"
DM_DATABASE_PATH = f"{_DM_DB_DIR}/downloads.db"


class SymlinkMode(enum.Enum):
    """How the DM authorizes symlinked destinations."""

    LEXICAL = "android-4.4"
    CHECK_THEN_USE = "android-6.0"
    SAFE = "patched"


class DownloadStatus(enum.Enum):
    """Lifecycle of a download row."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCESSFUL = "successful"
    FAILED = "failed"


@dataclass
class DownloadRecord:
    """One row of the DM's downloads database."""

    download_id: int
    url: str
    destination: str
    requesting_package: str
    status: DownloadStatus = DownloadStatus.PENDING
    bytes_so_far: int = 0

    def to_json(self) -> Dict[str, object]:
        """Serializable row (this is what leaks when the DB is stolen)."""
        return {
            "id": self.download_id,
            "url": self.url,
            "destination": self.destination,
            "package": self.requesting_package,
            "status": self.status.value,
        }


class DownloadManager:
    """The device's download manager service."""

    def __init__(self, kernel: Kernel, fs: Filesystem, hub: EventHub,
                 network: Network, layout: StorageLayout,
                 symlink_mode: SymlinkMode = SymlinkMode.CHECK_THEN_USE) -> None:
        self._kernel = kernel
        self._fs = fs
        self._hub = hub
        self._network = network
        self._layout = layout
        self.symlink_mode = symlink_mode
        self._records: Dict[int, DownloadRecord] = {}
        self._ids = itertools.count(1)
        # The DM runs as a privileged system service: it may read and
        # write anywhere.  That privilege is exactly what the symlink
        # attack borrows.
        self._caller = Caller(
            uid=SYSTEM_UID, package="com.android.providers.downloads", is_system=True
        )
        self._fs.makedirs(_DM_DB_DIR, self._caller)
        self._persist_database()

    # -- public API -----------------------------------------------------------

    def enqueue(self, caller: Caller, url: str, destination: str) -> int:
        """Request a download of ``url`` to ``destination``.

        Authorizes the destination per :attr:`symlink_mode`, binds the
        caller's package to the returned ID, and starts the transfer as
        a background simulation process.
        """
        self._authorize_destination(caller, destination, at_enqueue=True)
        download_id = next(self._ids)
        record = DownloadRecord(
            download_id=download_id,
            url=url,
            destination=destination,
            requesting_package=caller.package,
        )
        self._records[download_id] = record
        self._persist_database()
        self._kernel.spawn(self._transfer(record), name=f"dm-download-{download_id}")
        return download_id

    def query(self, caller: Caller, download_id: int) -> DownloadRecord:
        """Status row for ``download_id`` (caller must own it)."""
        return self._owned_record(caller, download_id)

    def retrieve(self, caller: Caller,
                 download_id: int) -> Generator[Sleep, None, bytes]:
        """Read back a completed download's bytes (simulation process).

        Under ``CHECK_THEN_USE`` the physical path is re-authorized, but
        a gap separates the check from the read — the Android 6.0 race.
        """
        record = self._owned_record(caller, download_id)
        physical = yield from self._check_then_use(record.destination)
        return self._fs.read_bytes(physical, self._caller)

    def remove(self, caller: Caller,
               download_id: int) -> Generator[Sleep, None, Tuple[str, bool]]:
        """Delete the downloaded file and the row.

        Returns ``(physical_path, unlinked)`` where ``unlinked`` says the
        file at the (possibly attacker-redirected) physical path was
        actually removed.
        """
        record = self._owned_record(caller, download_id)
        physical = yield from self._check_then_use(record.destination)
        unlinked = False
        if self._fs.exists(physical):
            self._fs.unlink(physical, self._caller)
            unlinked = True
        del self._records[download_id]
        self._persist_database()
        return physical, unlinked

    def completion_topic(self, download_id: int) -> str:
        """Event-hub topic published when ``download_id`` finishes."""
        return f"dm:complete:{download_id}"

    # -- authorization ---------------------------------------------------------

    def _authorize_destination(self, caller: Caller, destination: str,
                               at_enqueue: bool) -> None:
        """The DM's destination policy, with the mode-dependent blind spot."""
        if self.symlink_mode is SymlinkMode.LEXICAL or at_enqueue:
            path_for_check = posixpath.normpath(destination)
        else:
            path_for_check = self._physical_destination(destination)
        if not self._is_authorized_prefix(caller, path_for_check):
            raise DownloadDestinationError(
                f"{caller.package} may not download to {path_for_check}"
            )

    def _is_authorized_prefix(self, caller: Caller, path: str) -> bool:
        external = self._layout.external_root
        cache = f"{self._layout.app_data_root}/{caller.package}/cache"
        return (
            path == external
            or path.startswith(external + "/")
            or path.startswith(cache + "/")
        )

    def _check_then_use(self, destination: str) -> Generator[Sleep, None, str]:
        """Authorize then return the path to operate on, per symlink mode."""
        if self.symlink_mode is SymlinkMode.SAFE:
            # Patched behaviour: resolve once, check and use atomically.
            physical = self._physical_destination(destination)
            if not self._is_authorized_physical(physical):
                raise DownloadDestinationError(f"unauthorized path {physical}")
            return physical
        if self.symlink_mode is SymlinkMode.CHECK_THEN_USE:
            checked = self._physical_destination(destination)
            if not self._is_authorized_physical(checked):
                raise DownloadDestinationError(f"unauthorized path {checked}")
            # ... the gap: the link can be re-pointed before the use.
            yield Sleep(CHECK_TO_USE_GAP_NS)
        return self._physical_destination(destination)

    def _is_authorized_physical(self, path: str) -> bool:
        external = self._layout.external_root
        return path == external or path.startswith(external + "/")

    def _physical_destination(self, destination: str) -> str:
        """Resolve symlinks in ``destination``, tolerating a missing target."""
        path = posixpath.normpath(destination)
        hops = 0
        while self._fs.is_symlink(path):
            path = self._fs.readlink(path)
            hops += 1
            if hops > 16:
                raise DownloadError(f"symlink loop at {destination}")
        parent, name = split(path)
        try:
            resolved_parent = self._fs.resolve_physical(parent)
        except FilesystemError:
            resolved_parent = parent
        return posixpath.join(resolved_parent, name)

    # -- transfer --------------------------------------------------------------

    def _transfer(self, record: DownloadRecord) -> Generator[Sleep, None, None]:
        record.status = DownloadStatus.RUNNING
        try:
            content = self._network.fetch(record.url)
        except DownloadError:
            record.status = DownloadStatus.FAILED
            self._persist_database()
            self._announce(record)
            return
        yield Sleep(self._network.latency_ns)
        physical = self._physical_destination(record.destination)
        parent, _name = split(physical)
        if not self._fs.exists(parent):
            self._fs.makedirs(parent, self._caller)
        if self._fs.exists(physical):
            self._fs.unlink(physical, self._caller)
        handle = self._fs.create(physical, self._caller, exclusive=False)
        chunk_time = self._network.transfer_time_ns(DOWNLOAD_CHUNK_BYTES)
        offset = 0
        while offset < len(content) or offset == 0:
            chunk = content[offset:offset + DOWNLOAD_CHUNK_BYTES]
            handle.append(chunk)
            offset += len(chunk) or DOWNLOAD_CHUNK_BYTES
            record.bytes_so_far = min(offset, len(content))
            if offset < len(content):
                yield Sleep(chunk_time)
            else:
                break
        handle.close()  # emits CLOSE_WRITE: "download complete"
        record.status = DownloadStatus.SUCCESSFUL
        self._persist_database()
        self._announce(record)

    def _announce(self, record: DownloadRecord) -> None:
        self._hub.publish(self.completion_topic(record.download_id), record)
        self._hub.publish(f"broadcast:{ACTION_DOWNLOAD_COMPLETE}", record)

    # -- bookkeeping -------------------------------------------------------------

    def _owned_record(self, caller: Caller, download_id: int) -> DownloadRecord:
        record = self._records.get(download_id)
        if record is None:
            raise DownloadError(f"no such download id {download_id}")
        if record.requesting_package != caller.package and not caller.is_system:
            raise DownloadError(
                f"download {download_id} belongs to {record.requesting_package}"
            )
        return record

    def _persist_database(self) -> None:
        rows = [self._records[key].to_json() for key in sorted(self._records)]
        payload = json.dumps({"downloads": rows}, sort_keys=True).encode("utf-8")
        self._fs.write_bytes(DM_DATABASE_PATH, self._caller, payload, mode=0o600)
