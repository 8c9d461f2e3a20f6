"""Little-endian binary plumbing shared by the module-file and index formats,
including their one keyed-table codec, `Writer.table` and `Reader.table`,
and their one self-hash, `self_hashes` and `sealed`."""

from __future__ import annotations

import functools
import hashlib
import struct
import sys
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import CorruptTable

T = TypeVar("T")

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a over the raw bytes (the version 1 content hash)."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def digest64(*parts: bytes | memoryview) -> int:
    """64-bit BLAKE2b over the parts in order, read as a little-endian u64:
    the self-hash of module and index files; index rows also store each
    module file's."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "little")


# Both formats keep their self-hash in the u64 after magic and version.
_HASH_FIELD = slice(8, 16)


def self_hashes(data: bytes | bytearray) -> tuple[int, int] | None:
    """(stored, computed) self-hash of file bytes: the value of the hash
    field, and BLAKE2b-64 over the bytes with that field zeroed.
    None when the bytes are too short to hold the field."""
    if len(data) < _HASH_FIELD.stop:
        return None
    with memoryview(data) as view:
        stored = int.from_bytes(view[_HASH_FIELD], "little")
        return stored, digest64(view[:_HASH_FIELD.start], bytes(8), view[_HASH_FIELD.stop:])


def sealed(data: bytes) -> bytes:
    """File bytes with their self-hash field filled in."""
    out = bytearray(data)
    out[_HASH_FIELD] = self_hashes(data)[1].to_bytes(8, "little")
    return bytes(out)


def byte_order(keys: Iterable[str]) -> list[str]:
    """Keys in UTF-8 byte order, the order of every on-disk table.  For text
    that encodes, code-point order is UTF-8 byte order."""
    return sorted(keys)


def decode_flags(known: Mapping[int, T], value: int) -> T:
    """A flags byte through its table of the bytes a format writes; any
    other byte raises CorruptTable, naming bits outside every written byte."""
    if value in known:
        return known[value]
    if value & ~functools.reduce(int.__or__, known, 0):
        raise CorruptTable(f"unknown flag bits in {value:#04x}")
    raise CorruptTable(f"flags {value:#04x} are never written")


_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(_U8.pack(value))

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def raw(self, data: bytes | bytearray) -> None:
        self._parts.append(data)

    def lpstr(self, text: str) -> None:
        encoded = text.encode("utf-8")
        self.u32(len(encoded))
        self.raw(encoded)

    def table(self, rows: Mapping[str, T], write_row: Callable[[T], None]) -> None:
        """A u32 count, then each key (as `lpstr`) and its row, in byte order."""
        keys = byte_order(rows)
        self.u32(len(keys))
        for key in keys:
            self.lpstr(key)
            write_row(rows[key])

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Cursor over immutable bytes; any overrun raises CorruptTable.

    Fixed-width fields are unpacked in place at `pos` with precompiled
    `struct.Struct`s, a whole row per call where the format has rows."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def unpack(self, fmt: struct.Struct) -> tuple:
        """One fixed-width row of `fmt`."""
        pos = self.pos
        try:
            row = fmt.unpack_from(self.data, pos)
        except struct.error:
            raise CorruptTable(f"truncated at byte {pos}") from None
        self.pos = pos + fmt.size
        return row

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def raw(self, n: int) -> bytes:
        start = self.pos
        end = start + n
        if end > len(self.data):
            raise CorruptTable(f"truncated at byte {start}")
        self.pos = end
        return self.data[start:end]

    def rows(self, fmt: struct.Struct, count: int) -> Iterator[tuple]:
        """`count` consecutive rows of `fmt`, bounds-checked once."""
        return fmt.iter_unpack(self.raw(count * fmt.size))

    def lpstr(self) -> str:
        # The hottest read of every format, so its length prefix is
        # unpacked inline rather than through `u32`.
        pos = self.pos
        data = self.data
        try:
            (n,) = _U32.unpack_from(data, pos)
        except struct.error:
            raise CorruptTable(f"truncated at byte {pos}") from None
        start = pos + 4
        end = start + n
        if end > len(data):
            raise CorruptTable(f"truncated at byte {start}")
        try:
            text = sys.intern(data[start:end].decode("utf-8"))  # one str per spelling
        except UnicodeDecodeError as exc:
            raise CorruptTable(f"invalid UTF-8 at byte {start}") from exc
        self.pos = end
        return text

    def table(self, read_row: Callable[[str], T]) -> dict[str, T]:
        """A `Writer.table`: each key mapped to `read_row(key)`, in file
        order.  Keys that do not strictly increase raise CorruptTable."""
        rows: dict[str, T] = {}
        prev = None
        for _ in range(self.u32()):
            key = self.lpstr()
            if prev is not None and key <= prev:
                raise CorruptTable(f"table keys not strictly increasing at '{key}'")
            rows[key] = read_row(key)
            prev = key
        return rows

    def at_end(self) -> bool:
        return self.pos == len(self.data)
