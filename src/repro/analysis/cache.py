"""Packed storage for the content-addressed analysis cache.

An append-only *pack* format keeps a warm 1M-app re-run at O(segments)
file opens instead of one per app:

``seg-<digest>.pack``
    A segment: fixed 16-byte header (magic, format version, record
    count) followed by length-prefixed records.  Each record is
    ``u32 payload length + 32-byte sha256(payload) + payload`` (a
    :mod:`repro.durable` frame) of compact JSON.  Reads re-hash the
    payload and treat any mismatch as a miss, so a torn or corrupted
    record can never surface as a hit.

``seg-<digest>.idx``
    The segment's fanout index: header, a 256-entry cumulative fanout
    table over the first key byte, the sorted raw 32-byte keys, and a
    parallel ``(u64 offset, u32 length)`` table pointing into the
    segment.  A warm run opens O(segments) files — one index per
    segment up front, one lazy read-only mapping per segment actually
    read — regardless of how many records they hold.  A segment's first
    hit turns its index into a dict (hex key -> offset, length), so a
    later lookup there is one dict probe.

``map-<fingerprint>-<start>-<stop>.keys``
    A key map: the raw 32-byte content keys of corpus indices
    ``[start, stop)`` in index order, as one :mod:`repro.durable`
    frame, for the corpus plan whose fingerprint the name carries.  A
    cold shard writes one next to its segment, so a warm shard goes
    from an index to its key without building the app.  A torn or
    short map is ignored: its indices are keyed the slow way, so it
    costs misses of the map, never a hit.

``put`` takes each payload already encoded to its canonical bytes
(the caller writes them: see ``AnalysisCache.store``) and buffers
them; ``flush()`` frames them and joins the frames into a whole
segment in one pass (the pipeline flushes once per shard, and
``put`` rotates automatically past a record cap).  Segment, index and
key-map files go through a best-effort (not fsynced) ``atomic_write``,
and segment names are derived from the content digest — concurrent
shards never collide and re-flushing identical content is idempotent.
Because a segment is never rewritten in place, a reader may map it: a
replaced file keeps its old inode alive under any existing mapping.

A hit is one bounds check, one sha256 and one C-level decode that must
end at the payload's last byte.  Semantic validation (schema, shape and
detector-version checks, record materialization) stays with the
caller: ``get`` hands each decoded candidate to the caller's ``accept``,
and a refused candidate passes the lookup on to the next segment
holding the key, so a stale record never hides a fresh one.  A payload
is a JSON array whose element 1 is its key: the rebuild of a lost index
reads the keys from there.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import struct
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.durable import (
    FRAME,
    atomic_write,
    frame,
    iter_frames,
    read_frame,
    sweep_staging,
)

SEGMENT_MAGIC = b"RPK1"
INDEX_MAGIC = b"RPX1"
PACK_FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQ")       # magic, version, record count
_INDEX_ENTRY = struct.Struct("<QI")    # payload offset, payload length
_FANOUT = struct.Struct("<256I")

#: ``put`` rotates the open buffer into a segment past this many
#: records, bounding writer memory on giant shards.
ROTATE_RECORDS = 65536

_KEY_BYTES = 32

_KEYMAP_PREFIX, _KEYMAP_SUFFIX = "map-", ".keys"


def _keymap_range(name: str) -> Optional[Tuple[str, int, int]]:
    """``(fingerprint, start, stop)`` of a key-map file name, or None."""
    if not (name.startswith(_KEYMAP_PREFIX) and name.endswith(_KEYMAP_SUFFIX)):
        return None
    parts = name[len(_KEYMAP_PREFIX):-len(_KEYMAP_SUFFIX)].split("-")
    if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
        return None
    start, stop = int(parts[1]), int(parts[2])
    return (parts[0], start, stop) if start < stop else None


def _raw_key(key) -> bytes:
    """The raw bytes of a hex key; a malformed key maps to ``b""``."""
    try:
        return bytes.fromhex(key)
    except (TypeError, ValueError):
        return b""


#: The C scanner behind ``json.loads``: one call decodes one value and
#: says where it ended, with none of ``decode``'s whitespace matching.
_SCAN = json.JSONDecoder().scan_once


def _decode(blob: bytes) -> Any:
    """The JSON value ``blob`` holds to its last byte, or None."""
    try:
        text = blob.decode("utf-8")
        value, end = _SCAN(text, 0)
    except (ValueError, StopIteration):  # StopIteration: no value at 0
        return None
    return value if end == len(text) else None


class _Segment:
    """One pack segment and how a key is found in it.

    Until the segment serves its first hit, a key is found by a
    bisect of its index tables (fanout bucket, then the sorted keys).
    That hit — a candidate the caller's ``accept`` takes — turns them
    into a dict, hex key -> ``(offset, length)``, and drops them.  So
    only segments that serve hits hold a table, each bounded by its own
    records, and a lookup there is one probe.  Keys are lowercase hex:
    any other spelling of a key never matches.
    """

    def __init__(self, path: str, fanout: Tuple[int, ...], keys: bytes,
                 entries: bytes) -> None:
        self.path = path
        self._fanout = fanout
        self._keys = keys
        self._entries = entries
        self.table: Optional[Dict[str, Tuple[int, int]]] = None
        self.view: Optional[mmap.mmap] = None

    def read(self, key: str, accept: Callable[[Any], Any]) -> Any:
        """``accept`` of the key's decoded payload here, or None.

        None also when the segment lacks the key, the frame does not
        lie inside the segment, or the payload does not re-hash to the
        frame's sha256.  ``accept`` gets None for a payload that is not
        one JSON value ending at its last byte.
        """
        table = self.table
        entry = table.get(key) if table is not None else self._bisect(key)
        if entry is None:
            return None
        view = self.view or self._map()
        offset, length = entry
        end = offset + length
        if view is None or offset < FRAME.size or end > len(view):
            return None
        stored, digest = FRAME.unpack_from(view, offset - FRAME.size)
        payload = view[offset:end]
        if stored != length or sha256(payload).digest() != digest:
            return None
        result = accept(_decode(payload))
        if result is not None and table is None:
            self._build_table()
        return result

    def _bisect(self, key: str) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of ``key`` from the index tables, or None."""
        raw_key = _raw_key(key)
        if len(raw_key) != _KEY_BYTES or raw_key.hex() != key:
            return None
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
                return _INDEX_ENTRY.unpack_from(self._entries,
                                                mid * _INDEX_ENTRY.size)
        return None

    def _build_table(self) -> None:
        """Turn the index tables into the key -> entry dict."""
        hexed, width = self._keys.hex(), 2 * _KEY_BYTES
        self.table = dict(zip(
            [hexed[at:at + width] for at in range(0, len(hexed), width)],
            _INDEX_ENTRY.iter_unpack(self._entries)))
        self._keys = self._entries = b""

    def _map(self) -> Optional[mmap.mmap]:
        """The segment's read-only mapping, made on first use."""
        if self.view is None:
            try:
                with open(self.path, "rb") as handle:
                    self.view = mmap.mmap(handle.fileno(), 0,
                                          access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # ValueError: empty file
                return None
        return self.view

    def close(self) -> None:
        """Release the mapping (a later read maps the file again)."""
        if self.view is not None:
            self.view.close()
            self.view = None


def _build_index(records: List[Tuple[bytes, int, int]]
                 ) -> Tuple[Tuple[int, ...], bytes, bytes]:
    """``(fanout, keys blob, entries blob)`` from (key, offset, len)."""
    records = sorted(records, key=lambda item: item[0])
    counts = [0] * 256
    for raw_key, _offset, _length in records:
        counts[raw_key[0]] += 1
    keys = b"".join([raw_key for raw_key, _offset, _length in records])
    pack_entry = _INDEX_ENTRY.pack
    entries = b"".join([pack_entry(offset, length)
                        for _raw_key, offset, length in records])
    return tuple(itertools.accumulate(counts)), keys, entries


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
            return _Segment(path, fanout, keys, entries)
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
        value = _decode(payload)
        if isinstance(value, list) and len(value) > 1:
            raw_key = _raw_key(value[1])
            if len(raw_key) == _KEY_BYTES:
                records.append((raw_key, end - len(payload), len(payload)))
    return _Segment(path, *_build_index(records))


class PackStore:
    """Pack-aware payload storage under one cache root.

    ``put`` buffers a payload's canonical JSON bytes, ``get`` returns
    the first decoded candidate its ``accept`` takes, and ``flush``
    frames the buffered bytes into an immutable segment + index pair.

    Opening the store removes the staging files of flushes whose
    process died before their rename (:func:`repro.durable.sweep_staging`);
    a live writer's, another shard's on the same root, stays.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        names = sorted(os.listdir(root))
        sweep_staging(root, names)
        #: Readable segments by path, in name then flush order.
        self._segments: Dict[str, _Segment] = {}
        #: Key maps by fingerprint: ``(start, stop, path)`` entries.
        self._keymaps: Dict[str, List[Tuple[int, int, str]]] = {}
        for name in names:
            if name.endswith(".pack"):
                segment = _scan_segment(os.path.join(root, name))
                if segment is not None:
                    self._segments[segment.path] = segment
            else:
                found = _keymap_range(name)
                if found is not None:
                    self._add_keymap(*found)
        self._buffer: Dict[str, bytes] = {}

    def _add_keymap(self, fingerprint: str, start: int, stop: int) -> str:
        """Register a key map; its path."""
        path = os.path.join(self.root, f"{_KEYMAP_PREFIX}{fingerprint}-"
                                       f"{start}-{stop}{_KEYMAP_SUFFIX}")
        entries = self._keymaps.setdefault(fingerprint, [])
        if (start, stop, path) not in entries:
            entries.append((start, stop, path))
            entries.sort()
        return path

    # -- reads ----------------------------------------------------------------

    def get(self, key: str, accept: Callable[[Any], Any]) -> Any:
        """The first stored payload for ``key`` that ``accept`` takes.

        The candidates are the buffered payload, then each segment's in
        name order (see ``_Segment.read`` for the checks a segment's
        candidate passes).  ``accept`` maps a decoded candidate (None if
        it does not decode) to the result, or refuses it with None; a
        refused candidate passes the lookup on to the next one.
        """
        buffered = self._buffer.get(key)
        if buffered is not None:
            result = accept(_decode(buffered))
            if result is not None:
                return result
        for segment in self._segments.values():
            result = segment.read(key, accept)
            if result is not None:
                return result
        return None

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def mapped_keys(self, fingerprint: str, start: int,
                    stop: int) -> List[Optional[str]]:
        """The hex key of each index in ``[start, stop)`` from the key maps.

        Any map of ``fingerprint`` that overlaps the range serves the
        indices it covers, whatever range it was written for; where
        maps overlap, the one with the lower ``(start, stop)`` wins.
        An index no intact map covers reads as None.
        """
        keys: List[Optional[str]] = [None] * (stop - start)
        for map_start, map_stop, path in self._keymaps.get(fingerprint, ()):
            low, high = max(start, map_start), min(stop, map_stop)
            if low >= high or None not in keys[low - start:high - start]:
                continue
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                continue
            found = read_frame(blob, 0)
            if (found is None or found[1] != len(blob)
                    or len(found[0]) != (map_stop - map_start) * _KEY_BYTES):
                continue  # torn or foreign: these indices stay unmapped
            hexed, width = found[0].hex(), 2 * _KEY_BYTES
            for index in range(low, high):
                if keys[index - start] is None:
                    at = (index - map_start) * width
                    keys[index - start] = hexed[at:at + width]
        return keys

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, blob: bytes) -> None:
        """Buffer one payload's canonical bytes; rotates a full buffer."""
        self._buffer[key] = blob
        if len(self._buffer) >= ROTATE_RECORDS:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write buffered payloads as one segment; return its path."""
        if not self._buffer:
            return None
        keys = sorted(self._buffer)
        payloads = [self._buffer[key] for key in keys]
        framed = list(map(frame, payloads))
        # The segment's name hashes the frames' sha256 fields in order.
        running = sha256(b"".join(
            [record[4:FRAME.size] for record in framed]))
        records: List[Tuple[bytes, int, int]] = []
        starts = itertools.accumulate(map(len, framed), initial=_HEADER.size)
        for key, payload, start in zip(keys, payloads, starts):
            raw_key = _raw_key(key)
            if len(raw_key) == _KEY_BYTES:
                records.append((raw_key, start + FRAME.size, len(payload)))
        count = len(records)
        stem = os.path.join(self.root, f"seg-{running.hexdigest()[:16]}")
        segment_path = stem + ".pack"
        header = _HEADER.pack(SEGMENT_MAGIC, PACK_FORMAT_VERSION, count)
        fanout, index_keys, entries = _build_index(records)
        index_blob = (_HEADER.pack(INDEX_MAGIC, PACK_FORMAT_VERSION, count)
                      + _FANOUT.pack(*fanout) + index_keys + entries)
        atomic_write(segment_path, b"".join([header, *framed]), durable=False)
        atomic_write(stem + ".idx", index_blob, durable=False)
        retired = self._segments.get(segment_path)
        if retired is not None:  # identical content re-flushed
            retired.close()
        self._segments[segment_path] = _Segment(
            segment_path, fanout, index_keys, entries)
        self._buffer.clear()
        return segment_path

    def write_keymap(self, fingerprint: str, start: int,
                     keys: Sequence[str]) -> None:
        """Write the key map of indices ``[start, start + len(keys))``."""
        if keys:
            path = self._add_keymap(fingerprint, start, start + len(keys))
            atomic_write(path, frame(bytes.fromhex("".join(keys))),
                         durable=False)

    def remove_keymaps(self, fingerprint: str, start: int, stop: int) -> None:
        """Delete the maps of ``fingerprint`` that overlap ``[start, stop)``.

        Maps one run writes never overlap, so this removes no sibling
        shard's map; one that another shard removed first is skipped.
        """
        entries = self._keymaps.get(fingerprint, [])
        for map_start, map_stop, path in list(entries):
            if map_start < stop and start < map_stop:
                entries.remove((map_start, map_stop, path))
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass

    def close(self) -> None:
        """Release every segment mapping (does not flush the buffer)."""
        for segment in self._segments.values():
            segment.close()
