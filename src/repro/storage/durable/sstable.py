"""Immutable sorted segments (SSTables), read whole.

File layout::

    entry*  footer-json  footer-length:u64

Each entry is ``flag:u8 · key_len:u32 · value_len:u32 · key · value``
and every entry is a put: ``flag`` is 0. Entries are written in key
order. The JSON footer carries ``min_key`` / ``max_key`` (the segment's
key range), ``count`` and ``data_end`` (the length of the entry area).

Segments are read only to recover and compact the store, and both read
every key; queries scan the tables in memory. So a segment has no
per-key index. Older footers carry more keys (a key filter, a block
index, per-column summaries, a tombstone count); a reader ignores
every key it does not name. A footer or entry that does not parse
raises :class:`~repro.errors.StorageError` naming the file, and so
does an entry whose flag is not 0: flag 1 was a tombstone, a format no
longer read.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from collections.abc import Iterator
from typing import Any

from repro.errors import StorageError

_ENTRY = struct.Struct("<BII")  # flag, key length, value length
_FOOTER_LEN = struct.Struct("<Q")


class _CompactEncoder(json.JSONEncoder):
    """The text ``json.dumps(value, separators=(",", ":"))`` writes; the
    C encoder ``JSONEncoder.encode`` builds per call is built once."""

    def __init__(self) -> None:
        super().__init__(separators=(",", ":"))
        make = json.encoder.c_make_encoder  # None without the C module
        self._once = make and make(None, self.default,
                                   json.encoder.encode_basestring_ascii,
                                   None, ":", ",", False, False, True)

    def encode(self, o: Any) -> str:
        if self._once is None or isinstance(o, str):
            return super().encode(o)
        return "".join(self._once(o, 0))


#: The one codec of entry values, WAL records and footers.
JSON_ENCODER = _CompactEncoder()
JSON_DECODER = json.JSONDecoder()

_FLAG_PUT = 0


def write_sstable(path: str, items: list[tuple[str, Any]]) -> None:
    """Write sorted ``(key, value)`` *items* to *path*: each value
    encoded, then :func:`write_encoded`."""
    encode = JSON_ENCODER.encode
    write_encoded(path, [(key, encode(value)) for key, value in items])


def write_encoded(path: str, items: list[tuple[str, str]]) -> None:
    """Write sorted ``(key, value_text)`` *items* to *path*, each value
    already :data:`JSON_ENCODER` text.

    The file is complete only once the footer length lands; a crash
    mid-write leaves a file the manifest never references (recovery
    removes such orphans).
    """
    keys = [key for key, _ in items]
    if any(map(operator.ge, keys, keys[1:])):
        raise StorageError("sstable items must be strictly sorted by key")
    pack = _ENTRY.pack
    parts: list[bytes] = []
    offset = 0
    for key, text in items:
        key_bytes = key.encode("utf-8")
        value_bytes = text.encode("utf-8")
        entry = (pack(_FLAG_PUT, len(key_bytes), len(value_bytes))
                 + key_bytes + value_bytes)
        parts.append(entry)
        offset += len(entry)
    footer = {
        "min_key": keys[0] if keys else None,
        "max_key": keys[-1] if keys else None,
        "count": len(items),
        "data_end": offset,
    }
    footer_bytes = JSON_ENCODER.encode(footer).encode("utf-8")
    parts += (footer_bytes, _FOOTER_LEN.pack(len(footer_bytes)))
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))
        handle.flush()
        os.fsync(handle.fileno())


class SSTableReader:
    """One written segment: its footer, and its entries read whole."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size < _FOOTER_LEN.size:
                raise StorageError(f"sstable {path!r} has no footer")
            handle.seek(size - _FOOTER_LEN.size)
            (footer_len,) = _FOOTER_LEN.unpack(handle.read(_FOOTER_LEN.size))
            footer_start = size - _FOOTER_LEN.size - footer_len
            if footer_start < 0:
                raise StorageError(f"sstable {path!r} footer truncated")
            handle.seek(footer_start)
            try:
                footer = json.loads(handle.read(footer_len))
                self.min_key: str | None = footer["min_key"]
                self.max_key: str | None = footer["max_key"]
                self.count: int = footer["count"]
                self.data_end: int = footer["data_end"]
                if not 0 <= self.data_end <= footer_start:
                    raise StorageError(
                        f"sstable {path!r} data_end {self.data_end} "
                        f"lies past its footer at {footer_start}")
            except (ValueError, KeyError, TypeError) as exc:
                raise StorageError(
                    f"sstable {path!r} footer is corrupt: {exc!r}") from exc
        self.size_bytes = size

    def entries(self) -> Iterator[tuple[str, Any]]:
        """Every ``(key, value)`` in key order: one read of the data
        area, walked with ``unpack_from``."""
        with open(self.path, "rb") as handle:
            data = handle.read(self.data_end)
        decode = JSON_DECODER.decode
        unpack = _ENTRY.unpack_from
        header = _ENTRY.size
        end = len(data)
        position = 0
        try:
            while position < end:
                flag, key_len, value_len = unpack(data, position)
                key_end = position + header + key_len
                key = data[position + header:key_end].decode("utf-8")
                position = key_end + value_len
                if position > end:
                    break
                if flag != _FLAG_PUT:
                    raise StorageError(
                        f"sstable {self.path!r} entry {key!r} has flag "
                        f"{flag}, not a put: a format no longer read "
                        f"(flag 1 was a tombstone)")
                yield key, decode(data[key_end:position].decode("utf-8"))
        except (ValueError, struct.error) as exc:
            raise StorageError(f"sstable {self.path!r} is corrupt near "
                               f"byte {position}: {exc!r}") from exc
        if position > end:
            raise StorageError(f"sstable {self.path!r} entry runs past "
                               f"its data area ({position} > {end})")

    def __repr__(self) -> str:
        return f"SSTableReader({self.path!r}, count={self.count})"
