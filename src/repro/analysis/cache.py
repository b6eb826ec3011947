"""Packed storage for the content-addressed analysis cache.

An append-only *pack* format keeps a warm 1M-app re-run at O(segments)
file opens instead of one per app:

``seg-<digest>.pack``
    A segment: fixed 16-byte header (magic, format version, record
    count) followed by length-prefixed records.  Each record is
    ``u32 payload length + 32-byte sha256(payload) + payload`` (a
    :mod:`repro.durable` frame) of canonical JSON (sorted keys, compact
    separators).  Reads re-hash the payload and treat any mismatch as
    a miss, so a torn or corrupted record can never surface as a hit.

``seg-<digest>.idx``
    The segment's fanout index: header, a 256-entry cumulative fanout
    table over the first key byte, the sorted raw 32-byte keys, and a
    parallel ``(u64 offset, u32 length)`` table pointing into the
    segment.  A warm run opens O(segments) files — one index per
    segment up front, one lazy read-only mapping per segment actually
    read — regardless of how many records they hold.

Writers encode each payload to its canonical bytes once, at ``put``,
and buffer those bytes; ``flush()`` only frames them into a whole
segment (the pipeline flushes once per shard, and ``put`` rotates
automatically past a record cap).  Segment and index files go through
a best-effort (not fsynced) ``atomic_write``, and segment names are
derived from the content digest — concurrent shards never collide and
re-flushing identical content is idempotent.  Because a segment is
never rewritten in place, a reader may map it: a replaced file keeps
its old inode alive under any existing mapping.

Semantic validation (schema and detector-version checks, record
materialization) stays with the caller — this module moves *payload
dicts* in and out of files.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.durable import FRAME, atomic_write, frame, iter_frames, read_frame

SEGMENT_MAGIC = b"RPK1"
INDEX_MAGIC = b"RPX1"
PACK_FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQ")       # magic, version, record count
_INDEX_ENTRY = struct.Struct("<QI")    # payload offset, payload length
_FANOUT = struct.Struct("<256I")

#: ``put`` rotates the open buffer into a segment past this many
#: records, bounding writer memory on giant shards.
DEFAULT_ROTATE_RECORDS = 65536

_KEY_BYTES = 32


def _raw_key(key) -> bytes:
    """The raw bytes of a hex key; a malformed key maps to ``b""``."""
    try:
        return bytes.fromhex(key)
    except (TypeError, ValueError):
        return b""


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def _canonical_payload(payload: dict) -> bytes:
    """The byte form that is hashed, stored, and verified."""
    return _ENCODER.encode(payload).encode("utf-8")


def _decode_payload(blob: bytes) -> Optional[dict]:
    """The payload dict in ``blob``, or None if it is not one."""
    try:
        decoded = _DECODER.decode(blob.decode("utf-8"))
    except ValueError:
        return None
    return decoded if isinstance(decoded, dict) else None


class _Segment:
    """One pack segment and its in-memory index tables."""

    def __init__(self, path: str, count: int, fanout: Tuple[int, ...],
                 keys: bytes, entries: bytes) -> None:
        self.path = path
        self.count = count
        self._fanout = fanout
        self._keys = keys
        self._entries = entries
        self._map: Optional[mmap.mmap] = None

    def find(self, raw_key: bytes) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the key's payload, or None."""
        bucket = raw_key[0]
        low = self._fanout[bucket - 1] if bucket else 0
        high = self._fanout[bucket]
        keys = self._keys
        while low < high:
            mid = (low + high) // 2
            probe = keys[mid * _KEY_BYTES:(mid + 1) * _KEY_BYTES]
            if probe < raw_key:
                low = mid + 1
            elif probe > raw_key:
                high = mid
            else:
                return _INDEX_ENTRY.unpack_from(
                    self._entries, mid * _INDEX_ENTRY.size)
        return None

    def read_payload(self, offset: int, length: int) -> Optional[dict]:
        """Decode one sha256-verified payload; None on any corruption."""
        view = self._map
        if view is None:
            try:
                with open(self.path, "rb") as handle:
                    view = mmap.mmap(handle.fileno(), 0,
                                     access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # ValueError: empty file
                return None
            self._map = view
        verified = read_frame(view, offset - FRAME.size)
        if verified is None or verified[1] != offset + length:
            return None
        return _decode_payload(verified[0])

    def iter_payloads(self) -> Iterator[dict]:
        """Records in file order (skipping any that fail verification)."""
        for index in range(self.count):
            entry = _INDEX_ENTRY.unpack_from(
                self._entries, index * _INDEX_ENTRY.size)
            payload = self.read_payload(*entry)
            if payload is not None:
                yield payload

    def close(self) -> None:
        """Release the mapping (a later read maps the file again)."""
        if self._map is not None:
            self._map.close()
            self._map = None


def _build_index(records: List[Tuple[bytes, int, int]]
                 ) -> Tuple[Tuple[int, ...], bytes, bytes]:
    """``(fanout, keys blob, entries blob)`` from (key, offset, len)."""
    records = sorted(records, key=lambda item: item[0])
    counts = [0] * 256
    keys = bytearray()
    entries = bytearray()
    for raw_key, offset, length in records:
        counts[raw_key[0]] += 1
        keys += raw_key
        entries += _INDEX_ENTRY.pack(offset, length)
    fanout = []
    total = 0
    for bucket_count in counts:
        total += bucket_count
        fanout.append(total)
    return tuple(fanout), bytes(keys), bytes(entries)


def _scan_segment(path: str) -> Optional[_Segment]:
    """Open a segment via its ``.idx``, rebuilding the index if needed."""
    index_path = os.path.splitext(path)[0] + ".idx"
    try:
        with open(index_path, "rb") as handle:
            blob = handle.read()
        magic, version, count = _HEADER.unpack_from(blob, 0)
        if magic != INDEX_MAGIC or version != PACK_FORMAT_VERSION:
            raise ValueError("foreign index")
        offset = _HEADER.size
        fanout = _FANOUT.unpack_from(blob, offset)
        offset += _FANOUT.size
        keys = blob[offset:offset + count * _KEY_BYTES]
        offset += count * _KEY_BYTES
        entries = blob[offset:offset + count * _INDEX_ENTRY.size]
        if (len(keys) == count * _KEY_BYTES
                and len(entries) == count * _INDEX_ENTRY.size
                and fanout[255] == count):
            return _Segment(path, count, fanout, keys, entries)
    except (OSError, ValueError, struct.error):
        pass
    return _rebuild_from_segment(path)


def _rebuild_from_segment(path: str) -> Optional[_Segment]:
    """Walk a segment's records directly (missing or corrupt ``.idx``).

    Indexes every intact record and stops cleanly at a torn one.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        magic, version, _count = _HEADER.unpack_from(blob, 0)
    except struct.error:
        return None
    if magic != SEGMENT_MAGIC or version != PACK_FORMAT_VERSION:
        return None
    records: List[Tuple[bytes, int, int]] = []
    for payload, end in iter_frames(blob, _HEADER.size):
        raw_key = _raw_key((_decode_payload(payload) or {}).get("key"))
        if len(raw_key) == _KEY_BYTES:
            records.append((raw_key, end - len(payload), len(payload)))
    fanout, keys, entries = _build_index(records)
    return _Segment(path, len(records), fanout, keys, entries)


class PackStore:
    """Pack-aware payload storage under one cache root.

    ``get``/``put`` move payload dicts; ``put`` encodes each one to its
    canonical bytes once, and ``flush`` frames the buffered bytes into
    an immutable segment + index pair.
    """

    def __init__(self, root: str,
                 rotate_records: int = DEFAULT_ROTATE_RECORDS) -> None:
        self.root = root
        self.rotate_records = rotate_records
        os.makedirs(root, exist_ok=True)
        #: Readable segments by path, in name then flush order.
        self._segments: Dict[str, _Segment] = {}
        for name in sorted(os.listdir(root)):
            if name.endswith(".pack"):
                segment = _scan_segment(os.path.join(root, name))
                if segment is not None:
                    self._segments[segment.path] = segment
        self._buffer: Dict[str, bytes] = {}

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key`` (buffered or packed)."""
        buffered = self._buffer.get(key)
        if buffered is not None:
            return _decode_payload(buffered)
        raw_key = _raw_key(key)
        if len(raw_key) == _KEY_BYTES:
            for segment in self._segments.values():
                entry = segment.find(raw_key)
                if entry is not None:
                    payload = segment.read_payload(*entry)
                    if payload is not None:
                        return payload
        return None

    def iter_payloads(self) -> Iterator[dict]:
        """Every stored payload: segments (name order), then the buffer."""
        for segment in self._segments.values():
            yield from segment.iter_payloads()
        for blob in self._buffer.values():
            yield _decode_payload(blob)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Buffer one payload; rotates a full buffer into a segment."""
        self._buffer[key] = _canonical_payload(payload)
        if len(self._buffer) >= self.rotate_records:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write buffered payloads as one segment; return its path."""
        if not self._buffer:
            return None
        body = bytearray()
        records: List[Tuple[bytes, int, int]] = []
        running = hashlib.sha256()
        for key in sorted(self._buffer):
            payload = self._buffer[key]
            record = frame(payload)
            running.update(FRAME.unpack_from(record)[1])
            body += record
            raw_key = _raw_key(key)
            if len(raw_key) == _KEY_BYTES:
                records.append((raw_key, _HEADER.size + len(body)
                                - len(payload), len(payload)))
        count = len(records)
        stem = os.path.join(self.root, f"seg-{running.hexdigest()[:16]}")
        segment_path = stem + ".pack"
        header = _HEADER.pack(SEGMENT_MAGIC, PACK_FORMAT_VERSION, count)
        fanout, keys, entries = _build_index(records)
        index_blob = (_HEADER.pack(INDEX_MAGIC, PACK_FORMAT_VERSION, count)
                      + _FANOUT.pack(*fanout) + keys + entries)
        atomic_write(segment_path, header + bytes(body), durable=False)
        atomic_write(stem + ".idx", index_blob, durable=False)
        retired = self._segments.get(segment_path)
        if retired is not None:  # identical content re-flushed
            retired.close()
        self._segments[segment_path] = _Segment(
            segment_path, count, fanout, keys, entries)
        self._buffer.clear()
        return segment_path

    def close(self) -> None:
        """Release every segment mapping (does not flush the buffer)."""
        for segment in self._segments.values():
            segment.close()
