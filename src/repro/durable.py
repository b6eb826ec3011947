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
from typing import Iterator, List, Optional, Tuple, Union

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
    """Replace ``path`` with ``blob`` via a ``.tmp-*`` file and a rename.

    Readers see the old file or the new one, never a torn one.  A failed
    write removes the temp file; a crash may leave it, unread."""
    fd, staged = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                  prefix=".tmp-")
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
