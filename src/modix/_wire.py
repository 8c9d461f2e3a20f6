"""Little-endian binary plumbing shared by the module-file and index formats:
their one keyed-table codec, `Writer.table` and `Reader.table`, their one self-hash
(`self_hashes`, `stored_hash(es)`, `sealed`), and `read_artifact`, the one file reader.

A table is laid out by column, so a load reads it in a few bulk calls and a
lookup touches one row::

    count u32 | key_end u32 x count | one column per fixed-width field | key heap

Keys are the UTF-8 heap slices between consecutive `key_end`s (the first
starts at 0), strictly increasing in byte order.  A loaded table is a dict
from each key to its row index, in file order, and one `array` per field;
`Writer.rows` and `Reader.rows` do the rows after the count, keys in any order."""

from __future__ import annotations

import errno
import functools
import hashlib
import itertools
import operator
import os
import struct
import sys
from array import array
from stat import S_ISREG
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import CorruptTable, UnreadableFile

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


# The errors that mean no file is there, as `Path.is_file()` reads them (ENXIO: a socket).
_NO_FILE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO})
_READ_SIZE = 1 << 16


def read_artifact(path: str | os.PathLike, limit: int | None = None) -> bytes | None:
    """The bytes of the regular file at `path`, or its first `limit` bytes: one
    open, one `fstat`, reads to end of file or to the limit, one close.  None
    exactly where `Path.is_file()` is false (a FIFO is opened without blocking,
    never read); any other OSError raises UnreadableFile naming the path."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            status = os.fstat(fd)
            if not S_ISREG(status.st_mode):
                return None
            left = sys.maxsize if limit is None else limit
            parts, size = [], status.st_size or _READ_SIZE  # /proc files report 0
            while left and (part := os.read(fd, size if size < left else left)):
                parts.append(part)
                left -= len(part)
                size = _READ_SIZE  # the read that finds the end needs no big buffer
            return b"".join(parts)  # one part is returned as is
        finally:
            os.close(fd)
    except ValueError:  # an embedded NUL names no file
        return None
    except OSError as exc:
        if exc.errno in _NO_FILE:
            return None
        raise UnreadableFile(f"cannot read {path}: {exc.strerror or exc}") from exc


# Both formats keep their self-hash in the u64 after magic and version: a file's head.
_HASH_FIELD = slice(8, 16)
HEAD_SIZE = _HASH_FIELD.stop


def stored_hash(data: bytes | bytearray) -> int | None:
    """The hash field's value in file bytes or a head; None if they are too short to hold it."""
    return int.from_bytes(data[_HASH_FIELD], "little") if len(data) >= HEAD_SIZE else None


def stored_hashes(heads: Sequence[bytes | None]) -> array | None:
    """Each head's `stored_hash`, as one column; None unless every head holds one."""
    fields = b"" if None in heads else b"".join([head[_HASH_FIELD] for head in heads])
    return Reader(fields).column("Q", len(heads)) if len(fields) == 8 * len(heads) else None


def self_hashes(data: bytes | bytearray) -> tuple[int, int] | None:
    """(`stored_hash`, BLAKE2b-64 over the bytes with the hash field zeroed) of
    file bytes; None when they are too short to hold the field."""
    if (stored := stored_hash(data)) is None:
        return None
    with memoryview(data) as view:
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


def check_flags(known: Mapping[int, T], column: array) -> None:
    """Reject a column of flags bytes in one pass: the first byte outside
    `known`, the bytes a format writes, raises CorruptTable, naming any bits
    outside every written byte."""
    if column.tobytes().translate(None, bytes(known)):
        value = next(value for value in column if value not in known)
        if value & ~functools.reduce(int.__or__, known, 0):
            raise CorruptTable(f"unknown flag bits in {value:#04x}")
        raise CorruptTable(f"flags {value:#04x} are never written")


def first_false(checks: Iterable[bool]) -> int:
    """The index of the first false check, for naming the row a failed bulk
    check is about."""
    return next(itertools.compress(itertools.count(), map(operator.not_, checks)))


def key_at(rows: Mapping[str, int], index: int) -> str:
    """The key of row `index` of a loaded table."""
    return next(itertools.islice(rows, index, None))


# The array typecode holding each struct code's fixed-width field.
_ARRAY_CODES = {
    code: next(a for a in "BHILQ" if array(a).itemsize == struct.calcsize(code)) for code in "BIQ"
}

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

    def column(self, code: str, values: Iterable[int]) -> None:
        """Fixed-width fields of one struct code, packed back to back."""
        values = list(values)
        self.raw(struct.pack(f"<{len(values)}{code}", *values))

    def table(self, rows: Mapping[str, T], fields: str, row: Callable[[T], tuple]) -> None:
        """A table of `rows` (see the module doc): one column per struct code
        of `fields`, `row(value)` giving a value's fields, called in key
        byte order."""
        keys = byte_order(rows)
        values = [row(rows[key]) for key in keys]
        self.u32(len(keys))
        self.rows(keys, fields, zip(*values) if values else [()] * len(fields))

    def rows(self, keys: Sequence[str], fields: str, columns: Iterable[Iterable[int]]) -> None:
        """A table's rows after its count, `keys` in the order given."""
        heap = [key.encode("utf-8") for key in keys]
        self.column("I", itertools.accumulate(map(len, heap)))
        for code, column in zip(fields, columns):
            self.column(code, column)
        self.raw(b"".join(heap))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Cursor over immutable bytes; any overrun raises CorruptTable.

    Fixed-width fields are unpacked in place at `pos` with precompiled
    `struct.Struct`s, and a table's columns one whole column per call."""

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

    def column(self, code: str, count: int) -> array:
        """`count` fixed-width fields of one struct code, bounds-checked
        once, as an array."""
        column = array(_ARRAY_CODES[code], self.raw(count * struct.calcsize(code)))
        if sys.byteorder == "big":
            column.byteswap()
        return column

    def lpstr(self) -> str:
        start = self.pos + 4
        data = self.raw(self.u32())
        try:
            return sys.intern(data.decode("utf-8"))  # one str per spelling
        except UnicodeDecodeError as exc:
            raise CorruptTable(f"invalid UTF-8 at byte {start}") from exc

    def table(self, fields: str) -> tuple[dict[str, int], list[array]]:
        """A `Writer.table`: each key mapped to its row index, in file order,
        and its columns (see `rows`); keys not strictly increasing raise CorruptTable."""
        count = self.u32()
        keys, columns = self.rows(count, fields)
        rows = dict(zip(keys, range(count)))
        if len(rows) != count or keys != sorted(keys):
            row = first_false(map(operator.lt, keys, itertools.islice(keys, 1, None))) + 1
            raise CorruptTable(f"table keys not strictly increasing at '{keys[row]}'")
        return rows, columns

    def rows(self, count: int, fields: str) -> tuple[list[str], list[array]]:
        """`count` rows of a `Writer.rows`, keys interned; bad key ends or UTF-8 raise CorruptTable."""
        ends = self.column("I", count).tolist()
        columns = [self.column(code, count) for code in fields]
        heap_start = self.pos
        starts = [0, *ends[:-1]]
        if ends != sorted(ends):
            row = first_false(map(operator.le, starts, ends))
            raise CorruptTable(f"table key ends decrease at row {row}")
        heap = self.raw(ends[-1] if count else 0)
        try:
            text = heap.decode("utf-8")
        except UnicodeDecodeError:
            text = ""
        if len(text) == len(heap):  # ASCII, so byte offsets are str offsets
            keys = [text[start:end] for start, end in zip(starts, ends)]
        else:
            keys = []
            for start, end in zip(starts, ends):
                try:
                    keys.append(heap[start:end].decode("utf-8"))
                except UnicodeDecodeError:
                    raise CorruptTable(f"invalid UTF-8 at byte {heap_start + start}") from None
        return list(map(sys.intern, keys)), columns  # one str per spelling

    def at_end(self) -> bool:
        return self.pos == len(self.data)
