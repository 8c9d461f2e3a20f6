"""Binary per-library module files: compile, summarize, lazily deserialize,
merge, and build the monolithic precompiled cache.

File layout (all integers little-endian)::

    magic "MODF" | version u32 = 4 | content_hash u64 |
    name (u32 len + UTF-8) |
    import_count u32 | imports (u32 len + UTF-8 each) |
    identifier table, rows in name byte order (see ``_wire``):
        ident_count u32 | key_end u32 x n | flags u8 x n |
        blob_offset u64 x n | blob_len u32 x n | names (UTF-8, back to back) |
    blob_region_len u64 | blob_region bytes (blobs in table order)

    blob: origin path (u32 len + UTF-8) | origin line u32 | payload
    payload: kind tag u8 | name (u32 len + UTF-8) | the kind's fields

Each row's name length lives in its ``key_end``, so a table is exactly as
long as version 3's row-at-a-time one and ``summary_bytes`` is unchanged.
A load checks the whole table in bulk.  A row is its index into the
columns: `ModuleFile.rows` maps a name to it, `deserialize_decl` decodes
one row's blob and `deserialize_module` a whole module's, in file order.
`deserialize_module` decodes through a `DecodeMemo` a caller may share
across modules, so a row whose blob head and payload both repeat is not decoded.

`decode_blob` is the one blob decoder: it unpacks each field in place with
`struct.unpack_from` at a local offset, with no cursor object or call per
field, and `encode_payload` builds its parts in one list joined once.  A
decoded row must declare the row's own name, as a kind that merges as the
row's flags say; `deserialize_decl` and `deserialize_module` raise
CorruptTable naming the row otherwise.

The content hash is BLAKE2b with an 8-byte digest over the whole file with
the hash field zeroed, stored little-endian; every load and every index
validation recomputes it.  Versions 1 to 3 are rejected.
Each blob is the canonical serialization of one declaration.  Its origin
(header path relative to the module root) is excluded from the payload bytes
used for one-definition-rule comparisons so that byte-identical content in
differently named headers still de-duplicates.  The origin leads, so the
payload is a slice found from the blob's head (`split_blob`): the release
fold (`fold_rows`) decodes no blob, and a merge candidate carries the slice
`deserialize_decl` returns, so merging encodes nothing.

Module files are immutable once written; readers never mutate shared state.
"""

from __future__ import annotations

import operator
import os
import struct
import sys
from dataclasses import dataclass
from enum import IntEnum, IntFlag
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._wire import Reader, Writer, check_flags, first_false, key_at, read_artifact, sealed
from ._wire import self_hashes as content_hashes
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .declang import Decl, DeclKind, HeaderAST, StructField, TypeRef
from .errors import (
    BadMagic,
    BadVersion,
    CorruptTable,
    HashMismatch,
    ModuleNotFound,
    OdrInModule,
    OdrViolation,
    reading,
)

MAGIC = b"MODF"
VERSION = 4
FILE_EXTENSION = ".pcm"
PCH_MODULE_NAME = "__pch__"
PCH_FILE_NAME = f"{PCH_MODULE_NAME}{FILE_EXTENSION}"


class DeclFlags(IntFlag):
    """Per-identifier flags.  HAS_DEFINITION marks any non-forward
    declaration; IS_ALIAS / IS_FUNCTION qualify its nature.  A module holds at
    most one non-forward kind per name, so its flags name the `EntityKind` its
    blob merges as (`merges_as`), whether or not HAS_FORWARD is beside it."""

    HAS_DEFINITION = 1
    HAS_FORWARD = 2
    IS_ALIAS = 4
    IS_FUNCTION = 8


# The identifier table's columns: flags u8, blob_offset u64, blob_len u32.
_ENTRY_FIELDS = "BQI"
_U32 = struct.Struct("<I")
_U32X2 = struct.Struct("<II")


class EntityKind(IntEnum):
    """What a merged name is; a member's value is its merge rank.  That order
    is the one winner rule: ODR merging, the semantic index's DEFINES
    postings and the rootmap all take a name's top-ranked kind, then the
    lowest module id among its declarations of that kind."""

    FORWARD = 0
    ALIAS = 1
    FUNCTION = 2
    DEFINITION = 3


# Every per-kind fact: its blob's first byte, its table flags, an `int`, and its merge kind.
_KindFacts = NamedTuple("_KindFacts", [("tag", int), ("flags", int), ("entity", EntityKind)])
_DEF, _FWD = DeclFlags.HAS_DEFINITION.value, DeclFlags.HAS_FORWARD.value
_KINDS = {
    DeclKind.STRUCT_DEF: _KindFacts(1, _DEF, EntityKind.DEFINITION),
    DeclKind.STRUCT_FWD: _KindFacts(2, _FWD, EntityKind.FORWARD),
    DeclKind.ENUM_DEF: _KindFacts(3, _DEF, EntityKind.DEFINITION),
    DeclKind.ALIAS: _KindFacts(4, _DEF | DeclFlags.IS_ALIAS.value, EntityKind.ALIAS),
    DeclKind.FUNC_DECL: _KindFacts(5, _DEF | DeclFlags.IS_FUNCTION.value, EntityKind.FUNCTION),
}
_TAG_KINDS = {facts.tag: kind for kind, facts in _KINDS.items()}
_TAG_BYTES = {kind: bytes((facts.tag,)) for kind, facts in _KINDS.items()}
# The kinds the codec branches on, as plain names: reading a member off its
# enum class goes through the enum's metaclass, about 100 ns a read on
# Python 3.11 against 8 ns for a global.
_STRUCT_DEF, _STRUCT_FWD = DeclKind.STRUCT_DEF, DeclKind.STRUCT_FWD
_ENUM_DEF, _ALIAS, _FUNC_DECL = DeclKind.ENUM_DEF, DeclKind.ALIAS, DeclKind.FUNC_DECL
_TAG_FACTS = {facts.tag: facts for facts in _KINDS.values()}
# Every flags byte a module's table can hold (a kind's flags, alone or beside
# a forward declaration) to the kind it merges as; loads reject other bytes.
_FLAGS_ENTITY = {
    facts.flags | forward: facts.entity for facts in _KINDS.values() for forward in (0, _FWD)
}
merges_as = _FLAGS_ENTITY.__getitem__


@dataclass
class ModuleFile:
    """In-memory handle over one module file.  It carries no module id, and
    neither does the file, so files stay relocatable: a module's id is its
    position in the module map.

    The identifier table stays in its columns: `rows` maps each name, in
    file (byte) order, to its row, an index into `flags`, `blob_offsets`
    and `blob_lens`."""

    module_name: str
    imports: tuple[str, ...]
    rows: dict[str, int]
    flags: Sequence[int]
    blob_offsets: Sequence[int]
    blob_lens: Sequence[int]
    blob_region: bytes
    content_hash: int
    summary_bytes: int

    def blobs(self) -> Iterator[tuple[str, int, bytes]]:
        """Every row's name, flags byte and blob, in file order."""
        region = self.blob_region
        spans = map(slice, self.blob_offsets, map(operator.add, self.blob_offsets, self.blob_lens))
        return zip(self.rows, self.flags, map(region.__getitem__, spans))


@dataclass(slots=True, unsafe_hash=True)
class Entity:
    """The merged view of one name across the modules that declare it."""

    name: str
    kind: EntityKind
    canonical_payload: bytes
    defining_module: str | None
    decl: Decl


# A declaration to merge: the decl, the module (or header) it came from, and
# its `encode_payload` bytes, which ODR merging compares.
Candidate = tuple[Decl, str, bytes]


# --- declaration serialization ---


def encode_payload(decl: Decl) -> bytes:
    """Canonical payload bytes: kind tag, name, then the payload fields.
    Origin is deliberately not part of this; ODR compares these bytes.
    A type is its indirection u32, then its base name's length and bytes."""
    pack = _U32.pack
    name = decl.name.encode("utf-8")
    kind = decl.kind
    parts = [_TAG_BYTES[kind], pack(len(name)), name]
    if kind is _STRUCT_FWD:
        pass  # tested first: most declarations are forward ones
    elif kind is _STRUCT_DEF:
        parts.append(pack(len(decl.fields)))
        for field in decl.fields:
            name = field.name.encode("utf-8")
            ref = field.type
            base = ref.base.encode("utf-8")
            parts += (pack(len(name)), name, _U32X2.pack(ref.indirection, len(base)), base)
    elif kind is _ENUM_DEF:
        parts.append(pack(len(decl.enumerators)))
        for name in decl.enumerators:
            name = name.encode("utf-8")
            parts += (pack(len(name)), name)
    else:
        # An alias's target, or a function's parameter count, parameters
        # and return type.
        if kind is _ALIAS:
            types: tuple[TypeRef, ...] = (decl.alias_target,)
        else:
            parts.append(pack(len(decl.params)))
            types = (*decl.params, decl.returns)
        for ref in types:
            base = ref.base.encode("utf-8")
            parts += (_U32X2.pack(ref.indirection, len(base)), base)
    return b"".join(parts)


def _blob(origin: tuple[str, int], payload: bytes) -> bytes:
    path = origin[0].encode("utf-8")
    return b"".join((_U32.pack(len(path)), path, _U32.pack(origin[1]), payload))


def split_blob(blob: bytes) -> tuple[str, bytes]:
    """A blob's origin path and its payload, read from the blob's head
    without decoding the declaration.  A head that leaves no payload, or a
    path that is not UTF-8, raises CorruptTable."""
    try:
        (path_len,) = _U32.unpack_from(blob)
        path = blob[4:4 + path_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError):
        raise CorruptTable("damaged blob head") from None
    if 8 + path_len >= len(blob):
        raise CorruptTable("blob origin leaves no payload")
    return path, blob[8 + path_len:]


def decode_blob(blob: bytes) -> tuple[Decl, bytes]:
    """The declaration a blob encodes, and its payload: the bytes after the
    origin, which are exactly `encode_payload` of that declaration.

    Each field is unpacked in place at a local offset and checked against
    the blob's length, and each string is interned.  A field that overruns
    the blob raises CorruptTable "truncated at byte N", N where that u32 or
    that string's bytes start; a string that is not UTF-8, "invalid UTF-8
    at byte N"."""
    u32 = _U32.unpack_from
    intern = sys.intern
    end = len(blob)
    pos = 0  # where the u32 being unpacked starts
    start = 0  # where the string being decoded starts
    try:
        (n,) = u32(blob, 0)
        start = 4
        pos = 4 + n
        if pos > end:
            raise CorruptTable(f"truncated at byte {start}")
        origin = (intern(blob[4:pos].decode("utf-8")), u32(blob, pos)[0])
        payload_start = pos = pos + 4
        if pos == end:
            raise CorruptTable(f"truncated at byte {pos}")
        kind = _TAG_KINDS.get(blob[pos])
        if kind is None:
            raise CorruptTable(f"unknown declaration tag {blob[pos]}")
        pos += 1
        (n,) = u32(blob, pos)
        start = pos + 4
        pos = start + n
        if pos > end:
            raise CorruptTable(f"truncated at byte {start}")
        name = intern(blob[start:pos].decode("utf-8"))
        fields: tuple[StructField, ...] = ()
        enumerators: tuple[str, ...] = ()
        alias_target: TypeRef | None = None
        params: tuple[TypeRef, ...] = ()
        returns: TypeRef | None = None
        if kind is _STRUCT_FWD:
            pass  # tested first: most rows are forward declarations
        elif kind is _STRUCT_DEF:
            (count,) = u32(blob, pos)
            pos += 4
            members = []
            for _ in range(count):
                (n,) = u32(blob, pos)
                start = pos + 4
                pos = start + n
                if pos > end:
                    raise CorruptTable(f"truncated at byte {start}")
                member = intern(blob[start:pos].decode("utf-8"))
                (indirection,) = u32(blob, pos)
                pos += 4
                (n,) = u32(blob, pos)
                start = pos + 4
                pos = start + n
                if pos > end:
                    raise CorruptTable(f"truncated at byte {start}")
                base = intern(blob[start:pos].decode("utf-8"))
                members.append(StructField(member, TypeRef(base, indirection)))
            fields = tuple(members)
        elif kind is _ENUM_DEF:
            (count,) = u32(blob, pos)
            pos += 4
            members = []
            for _ in range(count):
                (n,) = u32(blob, pos)
                start = pos + 4
                pos = start + n
                if pos > end:
                    raise CorruptTable(f"truncated at byte {start}")
                members.append(intern(blob[start:pos].decode("utf-8")))
            enumerators = tuple(members)
        else:
            # An alias's target, or a function's parameters then its return
            # type: one type after another.
            count = 1
            if kind is _FUNC_DECL:
                (count,) = u32(blob, pos)
                pos += 4
                count += 1
            types = []
            for _ in range(count):
                (indirection,) = u32(blob, pos)
                pos += 4
                (n,) = u32(blob, pos)
                start = pos + 4
                pos = start + n
                if pos > end:
                    raise CorruptTable(f"truncated at byte {start}")
                types.append(TypeRef(intern(blob[start:pos].decode("utf-8")), indirection))
            if kind is _ALIAS:
                alias_target = types[0]
            else:
                params = tuple(types[:-1])
                returns = types[-1]
    except struct.error:
        raise CorruptTable(f"truncated at byte {pos}") from None
    except UnicodeDecodeError as exc:
        raise CorruptTable(f"invalid UTF-8 at byte {start}") from exc
    if pos != end:
        raise CorruptTable("trailing bytes after declaration")
    decl = Decl(name, kind, fields, enumerators, alias_target, params, returns, origin)
    return decl, blob[payload_start:]


# --- file emission ---


def _emit(module_name: str, imports: Sequence[str], rows: Sequence[tuple[str, int, bytes]]) -> bytes:
    """Emit file bytes for (name, flags, blob) rows, blobs laid out in table
    order, and patch the content hash."""
    region = bytearray()

    def entry_fields(row: tuple[int, bytes]) -> tuple[int, int, int]:
        flags, blob = row
        offset = len(region)
        region.extend(blob)
        return int(flags), offset, len(blob)

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # hash patched below
    w.lpstr(module_name)
    w.u32(len(imports))
    for imp in imports:
        w.lpstr(imp)
    w.table({name: (flags, blob) for name, flags, blob in rows}, _ENTRY_FIELDS, entry_fields)
    w.u64(len(region))
    w.raw(region)
    return sealed(w.getvalue())


def compile_module(
    module_name: str, headers: Iterable[HeaderAST], imports: Sequence[str] = ()
) -> bytes:
    """Compile parsed headers into module file bytes.

    One table entry per distinct name; a name both defined and
    forward-declared gets both flags.  Headers may repeat a declaration only
    byte-identically, otherwise OdrInModule is raised.  Each payload is
    encoded at most once, and a row's blob is built from its winner's.
    """
    seen = set()
    deduped: list[str] = []
    for imp in imports:
        if imp == module_name:
            raise ValueError(f"module '{module_name}' cannot import itself")
        if imp not in seen:
            seen.add(imp)
            deduped.append(imp)

    flags: dict[str, int] = {}
    winner: dict[str, tuple[Decl, bytes]] = {}  # canonical blob source per name, with its payload
    for header in headers:
        for decl in header.items:
            flags[decl.name] = flags.get(decl.name, 0) | _KINDS[decl.kind].flags
            current = winner.get(decl.name)
            if decl.is_forward:
                if current is None:
                    winner[decl.name] = (decl, encode_payload(decl))
                continue
            payload = encode_payload(decl)
            if current is None or current[0].is_forward:
                winner[decl.name] = (decl, payload)
            elif current[1] != payload:
                raise OdrInModule(decl.name)
    rows = [(name, flags[name], _blob(decl.origin, payload)) for name, (decl, payload) in winner.items()]
    return _emit(module_name, deduped, rows)


def read_module_summary(data: bytes) -> ModuleFile:
    """Parse module file bytes, validating framing, table order, flag bytes,
    blob bounds, and the content hash.  The table's checks run over whole
    columns; only a failed one looks for the first bad row to name it.

    The returned handle retains the blob region, but for cost accounting a
    summary read is worth `summary_bytes` only (everything up to the blob
    region); blob bytes are charged per declaration by `deserialize_decl`.
    """
    if data[:4] != MAGIC:
        raise BadMagic("not a module file (bad magic)")
    r = Reader(data, 4)
    version = r.u32()
    if version != VERSION:
        raise BadVersion(f"unsupported module file version {version}")
    stored_hash = r.u64()
    module_name = r.lpstr()
    imports = tuple(r.lpstr() for _ in range(r.u32()))
    rows, (flags, blob_offsets, blob_lens) = r.table(_ENTRY_FIELDS)
    check_flags(_FLAGS_ENTITY, flags)
    region_len = r.u64()
    summary_bytes = r.pos
    region = r.raw(region_len)
    if not r.at_end():
        raise CorruptTable("trailing bytes after blob region")
    if max(map(operator.add, blob_offsets, blob_lens), default=0) > region_len:
        fits = (offset + length <= region_len for offset, length in zip(blob_offsets, blob_lens))
        raise CorruptTable(f"blob for '{key_at(rows, first_false(fits))}' out of range")
    if content_hashes(data)[1] != stored_hash:
        raise HashMismatch(f"content hash mismatch in module '{module_name}'")
    return ModuleFile(
        module_name=module_name,
        imports=imports,
        rows=rows,
        flags=flags,
        blob_offsets=blob_offsets,
        blob_lens=blob_lens,
        blob_region=region,
        content_hash=stored_hash,
        summary_bytes=summary_bytes,
    )


def read_module(path: str, name: str) -> ModuleFile:
    """Module `name`'s summary from its file at `path`; no file raises ModuleNotFound."""
    data = read_artifact(path)
    if data is None:
        raise ModuleNotFound(name)
    with reading(path):
        return read_module_summary(data)


def read_modules(module_dir: str | Path, names: Iterable[str]) -> Iterator[ModuleFile]:
    """Summaries of `module_dir/<name>.pcm` for each name, in order, each
    read when the caller asks for it."""
    for name in names:
        yield read_module(os.path.join(module_dir, name + FILE_EXTENSION), name)


def _check_row(module: ModuleFile, row: int, decl: Decl) -> None:
    """A row's blob must declare the row's own name, as a kind that merges
    as the row's flags say; otherwise CorruptTable names the row."""
    if module.rows.get(decl.name) != row:
        problem = f"declares '{decl.name}'"
    elif _KINDS[decl.kind].entity is not merges_as(module.flags[row]):
        problem = "does not match its flags"
    else:
        return
    raise CorruptTable(f"blob of '{key_at(module.rows, row)}' in module '{module.module_name}' {problem}")


def deserialize_decl(module: ModuleFile, row: int) -> tuple[Decl, bytes]:
    """Decode the declaration blob of row `row`, found in `module.rows`,
    into the decl and its payload bytes; costs the row's blob length.  A
    blob that does not fit its row raises `_check_row`'s CorruptTable."""
    offset = module.blob_offsets[row]
    decl, payload = decode_blob(module.blob_region[offset:offset + module.blob_lens[row]])
    _check_row(module, row, decl)
    return decl, payload


def _at(decl: Decl, origin: tuple[str, int]) -> Decl:
    """`decl` declared at `origin`, sharing every other value."""
    return Decl(decl.name, decl.kind, decl.fields, decl.enumerators, decl.alias_target, decl.params, decl.returns, origin)


class DecodeMemo:
    """What `deserialize_module` decoded cleanly: each blob head's origin, and
    each payload's canonical bytes, merge kind and first declaration."""

    def __init__(self) -> None:
        self.origins: dict[bytes, tuple[str, int]] = {}
        self.payloads: dict[bytes, tuple[bytes, EntityKind, Decl]] = {}


def deserialize_module(module: ModuleFile, memo: DecodeMemo | None = None) -> list[tuple[str, Decl, bytes]]:
    """Every row's name, declaration and payload, in file order, checked as
    `deserialize_decl` checks a row; costs every blob length.  A row whose
    head and payload are both in `memo` takes its origin, payload and first
    declaration's values; any other goes through `decode_blob`, so a damaged
    blob raises what it raises.  A payload decodes alike behind any head."""
    memo = memo or DecodeMemo()
    origins, payloads, u32 = memo.origins, memo.payloads, _U32.unpack_from
    rows = []
    for name, flags, blob in module.blobs():
        split = 8 + u32(blob)[0] if len(blob) >= 4 else 0  # no head: decode_blob raises
        head = blob[:split]
        origin = origins.get(head)
        hit = payloads.get(blob[split:])
        if origin is None or hit is None:
            decl, payload = decode_blob(blob)
            origin = origins.setdefault(head, decl.origin)
            if hit is None:
                hit = payloads[payload] = (payload, _KINDS[decl.kind].entity, _at(decl, origin))
        payload, entity, first = hit
        decl = first if first.origin is origin else _at(first, origin)
        if decl.name != name or entity is not _FLAGS_ENTITY[flags]:
            _check_row(module, module.rows[name], decl)  # raises, naming the row
        rows.append((name, decl, payload))
    return rows


# --- merging ---


def _fold(firsts: dict[EntityKind, tuple], kind: EntityKind, name: str, candidate: tuple) -> None:
    """Take one candidate of a name, in module order, into `firsts`: the
    first candidate of each `EntityKind` stays, and a later one of that kind
    must carry the same payload bytes, or OdrViolation names both modules.
    A candidate is (its declaration or blob, its module, its payload)."""
    first = firsts.setdefault(kind, candidate)
    if first[2] != candidate[2]:
        raise OdrViolation(name, first[1], candidate[1])


def merge_entities(decls: Sequence[Candidate], module_order: Mapping[str, int]) -> Entity:
    """Collapse same-name declarations from several modules into one entity.

    Each candidate is folded (`_fold`) in module order, lowest module id
    first and then module name, so neither the entity (the first candidate
    of the top-ranked kind) nor, among several conflicts, the one reported
    (the first met) depends on input order.  A module missing from the order
    (`__pch__`, or a checkout of a module mapped after the index was built)
    ranks last.
    """
    if not decls:
        raise ValueError("merge_entities requires at least one declaration")
    name = decls[0][0].name
    firsts: dict[EntityKind, Candidate] = {}
    for candidate in sorted(decls, key=lambda c: (module_order.get(c[1], 2**32), c[1])):
        _fold(firsts, _KINDS[candidate[0].kind].entity, name, candidate)
    kind = max(firsts)
    decl, module, payload = firsts[kind]
    return Entity(decl.name, kind, payload, module, decl)


class Release(NamedTuple):
    """A folded release (`fold_rows`), each part in module map order."""

    modules: list[tuple[str, int]]  # each folded module's name and content hash
    postings: dict[str, list[tuple[str, EntityKind]]]  # each name's (module, kind), one per module
    winners: dict[str, tuple[str, int, bytes]]  # each name's winning module, kind's flags and blob


def fold_rows(modules: Iterable[ModuleFile]) -> Release:
    """The one release fold, and the one walk of a release's module rows:
    every release builder is a view of its `Release`.  Each summary, given in
    module map order, has its raw rows folded (`_fold`) as the stream yields
    it, keyed by each payload's tag, so one summary is held at a time; the
    first ODR conflict in module order raises OdrViolation, and a blob head
    whose tag does not merge as its row's flags raises CorruptTable."""
    release = Release([], {}, {})
    merged: dict[str, dict[EntityKind, tuple[bytes, str, bytes]]] = {}
    for mf in modules:
        module = mf.module_name
        release.modules.append((module, mf.content_hash))
        posting = [(module, kind) for kind in EntityKind]  # this module's, shared by its rows
        for name, flags, blob in mf.blobs():
            payload = split_blob(blob)[1]
            facts = _TAG_FACTS.get(payload[0])
            if facts is None or facts.entity is not merges_as(flags):
                raise CorruptTable(f"blob of '{name}' in module '{module}' does not match its flags")
            release.postings.setdefault(name, []).append(posting[facts.entity])
            _fold(merged.setdefault(name, {}), facts.entity, name, (blob, module, payload))
    for name, firsts in merged.items():
        blob, module, payload = firsts[max(firsts)]
        release.winners[name] = (module, _TAG_FACTS[payload[0]].flags, blob)
    return release


def build_pch(release: Release) -> bytes:
    """The precompiled cache named `__pch__` of a folded release: one row per
    winner, with its blob and flags."""
    rows = [(name, flags, blob) for name, (_, flags, blob) in release.winners.items()]
    return _emit(PCH_MODULE_NAME, (), rows)
