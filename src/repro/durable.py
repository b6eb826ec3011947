"""Durable I/O: one atomic replace and one sha256-framed record log.

Each call says whether it is durable (fsync the file, and its directory
after a rename or a create) or best-effort.  Every write, fsync, rename
and truncate goes through a module-level hook (``_write``, ``_fsync``,
``_replace``, ``_truncate``) so tests can crash right after any one.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]
#: A frame's header: payload length, then the payload's sha256.
FRAME = struct.Struct("<I32s")

_fsync, _replace, _truncate = os.fsync, os.replace, os.ftruncate


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fsync_directory(path) -> None:
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: PathLike, blob: bytes, *, durable: bool) -> None:
    """Replace ``path`` with ``blob`` via a ``.tmp-<pid>-*`` file and a rename.

    Readers see the old file or the new one, never a torn one.  A failed
    write removes the temp file; a crash may leave it, unread, for
    :func:`sweep_staging` to remove once its writer is gone."""
    fd, staged = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                  prefix=f".tmp-{os.getpid()}-")
    try:
        with open(fd, "wb", buffering=0):  # closes fd
            _write(fd, blob)
            if durable:
                _fsync(fd)
        _replace(staged, path)
    except Exception:
        with contextlib.suppress(OSError):
            os.unlink(staged)
        raise
    if durable:
        _fsync_directory(path)


def sweep_staging(directory: PathLike,
                  names: Optional[Iterable[str]] = None) -> None:
    """Remove the ``.tmp-*`` files in ``directory`` whose writer is gone.

    A staged name carries its writer's pid (``.tmp-<pid>-*``).  A file
    whose name carries no pid, or the pid of a process that is not
    running, was left by a crash and is removed; a live writer's file
    is kept, so stores that share a directory may each sweep it at
    open.  ``names`` is the directory's listing when the caller already
    holds one.
    """
    if names is None:
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return
    for name in names:
        if not name.startswith(".tmp-"):
            continue
        pid = name[len(".tmp-"):].split("-", 1)[0]
        if pid.isdigit() and _running(int(pid)):
            continue
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(directory, name))


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # running, under another user
    return True


def frame(payload: bytes) -> bytes:
    """``payload`` framed as ``u32 LE length | sha256 | payload``."""
    digest = hashlib.sha256(payload).digest()
    return FRAME.pack(len(payload), digest) + payload


def read_frame(buf, at: int) -> Optional[Tuple[bytes, int]]:
    """``(payload, end)`` of the frame at ``at``; None if torn or corrupt."""
    if at < 0 or at + FRAME.size > len(buf):
        return None
    length, digest = FRAME.unpack_from(buf, at)
    end = at + FRAME.size + length
    payload = buf[at + FRAME.size:end]
    if end > len(buf) or hashlib.sha256(payload).digest() != digest:
        return None
    return payload, end


def iter_frames(buf, at: int = 0) -> Iterator[Tuple[bytes, int]]:
    """``(payload, end)`` of every intact frame from ``at`` on.

    A corrupt frame is skipped (its length still locates the next one);
    a torn frame ends the walk."""
    while at + FRAME.size <= len(buf):
        found = read_frame(buf, at)
        if found is not None:
            yield found
        at += FRAME.size + FRAME.unpack_from(buf, at)[0]


class RecordLog:
    """Append-only log of frames in one file, with a single writer.

    Opening scans once to the end of the last intact frame; ``append``
    first cuts any torn tail past it, so a torn frame never hides the
    record appended after it.
    """

    def __init__(self, path: PathLike, *, durable: bool) -> None:
        self.path = Path(path)
        self.durable = durable
        #: Offset just past the last intact frame (0: an empty log).
        self.end = max((end for _payload, end in iter_frames(self._read())),
                       default=0)

    def _read(self) -> bytes:
        return self.path.read_bytes() if self.path.exists() else b""

    def records(self) -> List[bytes]:
        """Every intact payload in append order (empty when absent)."""
        return [payload for payload, _end in iter_frames(self._read())]

    def append(self, *payloads: bytes) -> None:
        """Append ``payloads`` in one write, fsynced when durable."""
        blob = b"".join(frame(payload) for payload in payloads)
        created = not self.path.exists()
        with open(self.path, "ab", buffering=0) as handle:
            fd = handle.fileno()
            if os.fstat(fd).st_size > self.end:
                _truncate(fd, self.end)
            _write(fd, blob)
            if self.durable:
                _fsync(fd)
        self.end += len(blob)
        if self.durable and created:
            _fsync_directory(self.path)
