"""Binary per-library module files: compile, summarize, lazily deserialize,
merge, and build the monolithic precompiled cache.

File layout (all integers little-endian)::

    magic "MODF" | version u32 = 2 | content_hash u64 |
    name (u32 len + UTF-8) |
    import_count u32 | imports (u32 len + UTF-8 each) |
    ident_count u32 | entries sorted by name bytes:
        (u32 len + UTF-8 name | flags u8 | blob_offset u64 | blob_len u32) |
    blob_region_len u64 | blob_region bytes (blobs in table order)

The content hash is BLAKE2b with an 8-byte digest over the whole file with
the hash field zeroed, stored little-endian; every load and every index
validation recomputes it.  Version 1 files (FNV-1a hashes) are rejected.
Each blob is the canonical serialization of one declaration: a kind tag, then
length-prefixed fields in source order, then the origin (header path relative
to the module root, plus line).  The origin is excluded from the payload bytes
used for one-definition-rule comparisons so that byte-identical content in
differently named headers still de-duplicates.  So a blob's payload is its
prefix before the origin: `deserialize_decl` returns that slice with the
declaration, and a merge candidate carries it, so merging encodes nothing.

Module files are immutable once written; readers never mutate shared state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum, IntFlag
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._wire import Reader, Writer, decode_flags, digest64
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
    UnknownIdentifier,
    reading,
)

MAGIC = b"MODF"
VERSION = 2
FILE_EXTENSION = ".pcm"
PCH_MODULE_NAME = "__pch__"
PCH_FILE_NAME = f"{PCH_MODULE_NAME}{FILE_EXTENSION}"

# The content_hash field inside the file (after magic + version).
_HASH_FIELD = slice(8, 16)
_ZERO_HASH = bytes(_HASH_FIELD.stop - _HASH_FIELD.start)


class DeclFlags(IntFlag):
    """Per-identifier flags.  HAS_DEFINITION marks any non-forward
    declaration; IS_ALIAS / IS_FUNCTION qualify its nature.  A module holds at
    most one non-forward kind per name, so its flags name the `EntityKind` its
    blob merges as (`merges_as`), whether or not HAS_FORWARD is beside it."""

    HAS_DEFINITION = 1
    HAS_FORWARD = 2
    IS_ALIAS = 4
    IS_FUNCTION = 8


# One identifier-table row after its name: flags u8, blob_offset u64, blob_len u32.
_ENTRY_ROW = struct.Struct("<BQI")


class EntityKind(IntEnum):
    """What a merged name is; a member's value is its merge rank.  That order
    is the one winner rule: ODR merging, the semantic index's DEFINES
    postings and the rootmap all take a name's top-ranked kind, then the
    lowest module id among its declarations of that kind."""

    FORWARD = 0
    ALIAS = 1
    FUNCTION = 2
    DEFINITION = 3


# Every per-kind fact: a blob's first byte, its identifier-table flags and
# the kind it merges as.
_KindFacts = NamedTuple("_KindFacts", [("tag", int), ("flags", DeclFlags), ("entity", EntityKind)])
_KINDS = {
    DeclKind.STRUCT_DEF: _KindFacts(1, DeclFlags.HAS_DEFINITION, EntityKind.DEFINITION),
    DeclKind.STRUCT_FWD: _KindFacts(2, DeclFlags.HAS_FORWARD, EntityKind.FORWARD),
    DeclKind.ENUM_DEF: _KindFacts(3, DeclFlags.HAS_DEFINITION, EntityKind.DEFINITION),
    DeclKind.ALIAS: _KindFacts(4, DeclFlags.HAS_DEFINITION | DeclFlags.IS_ALIAS, EntityKind.ALIAS),
    DeclKind.FUNC_DECL: _KindFacts(
        5, DeclFlags.HAS_DEFINITION | DeclFlags.IS_FUNCTION, EntityKind.FUNCTION
    ),
}
_TAG_KINDS = {facts.tag: kind for kind, facts in _KINDS.items()}
# Every flags byte a module's table can hold (a kind's flags, alone or beside
# a forward declaration) to the kind it merges as; loads reject other bytes.
_FLAGS_ENTITY = {
    facts.flags | forward: facts.entity
    for facts in _KINDS.values() for forward in (0, DeclFlags.HAS_FORWARD)
}
_DECL_FLAGS = {int(flags): flags for flags in _FLAGS_ENTITY}
merges_as = _FLAGS_ENTITY.__getitem__


@dataclass(frozen=True, slots=True)
class IdentEntry:
    name: str
    flags: DeclFlags
    blob_offset: int
    blob_len: int


@dataclass
class ModuleFile:
    """In-memory handle over one module file.  It carries no module id, and
    neither does the file, so files stay relocatable: a module's id is its
    position in the module map.  `table` is in file (byte) order."""

    module_name: str
    imports: tuple[str, ...]
    table: dict[str, IdentEntry]
    blob_region: bytes
    content_hash: int
    summary_bytes: int

    def find(self, name: str) -> IdentEntry | None:
        return self.table.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.table)


@dataclass(frozen=True, slots=True)
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


def _write_type(w: Writer, ref: TypeRef) -> None:
    w.u32(ref.indirection)
    w.lpstr(ref.base)


def _read_type(r: Reader) -> TypeRef:
    indirection = r.u32()
    return TypeRef(r.lpstr(), indirection)


def encode_payload(decl: Decl) -> bytes:
    """Canonical payload bytes: kind tag, name, then the payload fields.
    Origin is deliberately not part of this; ODR compares these bytes."""
    w = Writer()
    w.u8(_KINDS[decl.kind].tag)
    w.lpstr(decl.name)
    if decl.kind is DeclKind.STRUCT_DEF:
        w.u32(len(decl.fields))
        for f in decl.fields:
            w.lpstr(f.name)
            _write_type(w, f.type)
    elif decl.kind is DeclKind.ENUM_DEF:
        w.u32(len(decl.enumerators))
        for name in decl.enumerators:
            w.lpstr(name)
    elif decl.kind is DeclKind.ALIAS:
        _write_type(w, decl.alias_target)
    elif decl.kind is DeclKind.FUNC_DECL:
        w.u32(len(decl.params))
        for p in decl.params:
            _write_type(w, p)
        _write_type(w, decl.returns)
    return w.getvalue()


def encode_blob(decl: Decl) -> bytes:
    w = Writer()
    w.raw(encode_payload(decl))
    w.lpstr(decl.origin[0])
    w.u32(decl.origin[1])
    return w.getvalue()


def decode_blob(blob: bytes) -> tuple[Decl, bytes]:
    """The declaration a blob encodes, and its payload: the bytes before the
    origin, which are exactly `encode_payload` of that declaration."""
    r = Reader(blob)
    tag = r.u8()
    kind = _TAG_KINDS.get(tag)
    if kind is None:
        raise CorruptTable(f"unknown declaration tag {tag}")
    name = r.lpstr()
    fields: tuple[StructField, ...] = ()
    enumerators: tuple[str, ...] = ()
    alias_target: TypeRef | None = None
    params: tuple[TypeRef, ...] = ()
    returns: TypeRef | None = None
    if kind is DeclKind.STRUCT_DEF:
        fields = tuple(
            StructField(r.lpstr(), _read_type(r)) for _ in range(r.u32())
        )
    elif kind is DeclKind.ENUM_DEF:
        enumerators = tuple(r.lpstr() for _ in range(r.u32()))
    elif kind is DeclKind.ALIAS:
        alias_target = _read_type(r)
    elif kind is DeclKind.FUNC_DECL:
        params = tuple(_read_type(r) for _ in range(r.u32()))
        returns = _read_type(r)
    payload_len = r.pos
    origin = (r.lpstr(), r.u32())
    if not r.at_end():
        raise CorruptTable("trailing bytes after declaration")
    decl = Decl(name, kind, fields, enumerators, alias_target, params, returns, origin)
    return decl, blob[:payload_len]


# --- file emission ---


def _emit(module_name: str, imports: Sequence[str], decls: Sequence[tuple[str, DeclFlags, Decl]]) -> bytes:
    """Emit file bytes for (name, flags, decl) rows, blobs laid out in table
    order, and patch the content hash."""
    rows = {name: (flags, decl) for name, flags, decl in decls}
    region = bytearray()

    def write_entry(row: tuple[DeclFlags, Decl]) -> None:
        flags, decl = row
        blob = encode_blob(decl)
        w.raw(_ENTRY_ROW.pack(int(flags), len(region), len(blob)))
        region.extend(blob)

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # hash patched below
    w.lpstr(module_name)
    w.u32(len(imports))
    for imp in imports:
        w.lpstr(imp)
    w.table(rows, write_entry)
    w.u64(len(region))
    w.raw(region)
    data = bytearray(w.getvalue())
    _, digest = content_hashes(data)
    data[_HASH_FIELD] = digest.to_bytes(8, "little")
    return bytes(data)


def content_hashes(data: bytes) -> tuple[int, int] | None:
    """(stored, computed) content hash of module file bytes: the value of the
    hash field, and BLAKE2b-64 over the bytes with that field zeroed.
    None when the bytes are too short to hold the field."""
    if len(data) < _HASH_FIELD.stop:
        return None
    with memoryview(data) as view:
        stored = int.from_bytes(view[_HASH_FIELD], "little")
        return stored, digest64(
            view[:_HASH_FIELD.start], _ZERO_HASH, view[_HASH_FIELD.stop:]
        )


def compile_module(
    module_name: str, headers: Iterable[HeaderAST], imports: Sequence[str] = ()
) -> bytes:
    """Compile parsed headers into module file bytes.

    One table entry per distinct name; a name both defined and
    forward-declared gets both flags.  Headers may repeat a declaration only
    byte-identically, otherwise OdrInModule is raised.
    """
    seen = set()
    deduped: list[str] = []
    for imp in imports:
        if imp == module_name:
            raise ValueError(f"module '{module_name}' cannot import itself")
        if imp not in seen:
            seen.add(imp)
            deduped.append(imp)

    flags: dict[str, DeclFlags] = {}
    winner: dict[str, Decl] = {}  # canonical blob source per name
    winner_payload: dict[str, bytes] = {}
    for header in headers:
        for decl in header.items:
            flags[decl.name] = flags.get(decl.name, DeclFlags(0)) | _KINDS[decl.kind].flags
            current = winner.get(decl.name)
            if decl.is_forward:
                if current is None:
                    winner[decl.name] = decl
                continue
            if current is None or current.is_forward:
                winner[decl.name] = decl
                winner_payload[decl.name] = encode_payload(decl)
            elif winner_payload[decl.name] != encode_payload(decl):
                raise OdrInModule(decl.name)
    rows = [(name, flags[name], winner[name]) for name in winner]
    return _emit(module_name, deduped, rows)


def read_module_summary(data: bytes) -> ModuleFile:
    """Parse module file bytes, validating framing, table order, flag bits,
    blob bounds, and the content hash.

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

    def read_entry(name: str) -> IdentEntry:
        flags, blob_offset, blob_len = r.unpack(_ENTRY_ROW)
        return IdentEntry(name, decode_flags(_DECL_FLAGS, flags), blob_offset, blob_len)

    table = r.table(read_entry)
    region_len = r.u64()
    summary_bytes = r.pos
    region = r.raw(region_len)
    if not r.at_end():
        raise CorruptTable("trailing bytes after blob region")
    for e in table.values():
        if e.blob_offset + e.blob_len > region_len:
            raise CorruptTable(f"blob for '{e.name}' out of range")
    if content_hashes(data)[1] != stored_hash:
        raise HashMismatch(f"content hash mismatch in module '{module_name}'")
    return ModuleFile(
        module_name=module_name,
        imports=imports,
        table=table,
        blob_region=region,
        content_hash=stored_hash,
        summary_bytes=summary_bytes,
    )


def read_modules(module_dir: str | Path, names: Iterable[str]) -> Iterator[ModuleFile]:
    """Summaries of `module_dir/<name>.pcm` for each name, in order, each
    read when the caller asks for it."""
    module_dir = Path(module_dir)
    for name in names:
        path = module_dir / f"{name}{FILE_EXTENSION}"
        if not path.is_file():
            raise ModuleNotFound(name)
        with reading(path):
            yield read_module_summary(path.read_bytes())


def deserialize_decl(module: ModuleFile, name: str) -> tuple[Decl, bytes]:
    """Decode one declaration blob into the decl and its payload bytes;
    costs `blob_len` bytes."""
    entry = module.find(name)
    if entry is None:
        raise UnknownIdentifier(name)
    return decode_blob(module.blob_region[entry.blob_offset:entry.blob_offset + entry.blob_len])


# --- merging ---


def _fold(firsts: dict[EntityKind, Candidate], candidate: Candidate) -> None:
    """Take one candidate of a name, in module order, into `firsts`: the
    first candidate of each `EntityKind` stays, and a later one of that kind
    must carry the same payload bytes, or OdrViolation names both modules."""
    decl, module, payload = candidate
    first = firsts.setdefault(_KINDS[decl.kind].entity, candidate)
    if first[2] != payload:
        raise OdrViolation(decl.name, first[1], module)


def _entity(firsts: dict[EntityKind, Candidate]) -> Entity:
    """The merged entity: the first candidate of the top-ranked kind."""
    kind = max(firsts)
    decl, module, payload = firsts[kind]
    return Entity(decl.name, kind, payload, module, decl)


def merge_entities(
    decls: Sequence[Candidate],
    module_order: Mapping[str, int] | None = None,
) -> Entity:
    """Collapse same-name declarations from several modules into one entity.

    Each candidate is folded (`_fold`) in module order, lowest module id
    first and then module name, so neither the entity nor, among several
    conflicts, the one reported (the first met) depends on input order.
    """
    if not decls:
        raise ValueError("merge_entities requires at least one declaration")
    name = decls[0][0].name
    for decl, _, _ in decls:
        if decl.name != name:
            raise ValueError(f"mixed names in merge: '{name}' vs '{decl.name}'")

    def order(candidate: Candidate) -> tuple[int, str]:
        module = candidate[1]
        if module_order is not None and module in module_order:
            return (module_order[module], module)
        return (2**32, module)

    firsts: dict[EntityKind, Candidate] = {}
    for candidate in sorted(decls, key=order):
        _fold(firsts, candidate)
    return _entity(firsts)


def build_pch(modules: Iterable[ModuleFile]) -> bytes:
    """Merge whole modules, given in module map order, into one precompiled
    cache named `__pch__`.  Each summary is folded as the stream yields it,
    so per name only the first candidate of each kind is held, and an ODR
    conflict is raised at the first module that brings one.  A name's row is
    its winning declaration, with that declaration's flags.
    """
    merged: dict[str, dict[EntityKind, Candidate]] = {}
    for mf in modules:
        for name in mf.table:
            decl, payload = deserialize_decl(mf, name)
            _fold(merged.setdefault(name, {}), (decl, mf.module_name, payload))
    rows = [(e.name, _KINDS[e.decl.kind].flags, e.decl) for e in map(_entity, merged.values())]
    return _emit(PCH_MODULE_NAME, (), rows)
