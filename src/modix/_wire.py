"""Little-endian binary plumbing shared by the module-file and index formats,
including their one keyed-table codec, `Writer.table` and `Reader.table`."""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Iterable, Mapping, TypeVar

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
    the content hash of module files, which index rows also store."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "little")


def byte_order(keys: Iterable[str]) -> list[str]:
    """Keys in UTF-8 byte order, the order of every on-disk table.  For text
    that encodes, code-point order is UTF-8 byte order."""
    return sorted(keys)


def known_flags(flag_type: type[T]) -> dict[int, T]:
    """Every flags byte that sets only known bits of `flag_type`, decoded
    once; `Reader.flags` rejects any other byte."""
    known = 0
    for flag in flag_type:
        known |= int(flag)
    return {v: flag_type(v) for v in range(256) if not v & ~known}


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

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
    """Cursor over immutable bytes; any overrun raises CorruptTable."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CorruptTable(f"truncated at byte {self.pos}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def lpstr(self) -> str:
        n = self.u32()
        try:
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptTable(f"invalid UTF-8 at byte {self.pos}") from exc

    def flags(self, known: Mapping[int, T]) -> T:
        value = known.get(self.u8())
        if value is None:
            raise CorruptTable(f"unknown flag bits at byte {self.pos - 1}")
        return value

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
