"""Little-endian binary plumbing shared by the module-file and index formats."""

from __future__ import annotations

import hashlib
import struct

from .errors import CorruptTable

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


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def lpstr(self, text: str) -> None:
        encoded = text.encode("utf-8")
        self.u32(len(encoded))
        self.raw(encoded)

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

    def at_end(self) -> bool:
        return self.pos == len(self.data)
