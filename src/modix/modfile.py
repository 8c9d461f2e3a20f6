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
A load checks the whole table in bulk, and a row becomes an `IdentEntry`
only when `find` or `entries` asks for it.

The content hash is BLAKE2b with an 8-byte digest over the whole file with
the hash field zeroed, stored little-endian; every load and every index
validation recomputes it.  Versions 1 to 3 are rejected.
Each blob is the canonical serialization of one declaration.  Its origin
(header path relative to the module root) is excluded from the payload bytes
used for one-definition-rule comparisons so that byte-identical content in
differently named headers still de-duplicates.  The origin leads, so the
payload is a slice found from the blob's head (`split_blob`): the `__pch__`
build and the rootmap decode no blob, and a merge candidate carries the
slice `deserialize_decl` returns, so merging encodes nothing.

Module files are immutable once written; readers never mutate shared state.
"""

from __future__ import annotations

import operator
import os
import struct
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
    UnknownIdentifier,
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
_TAG_FACTS = {facts.tag: facts for facts in _KINDS.values()}
# Every flags byte a module's table can hold (a kind's flags, alone or beside
# a forward declaration) to the kind it merges as; loads reject other bytes.
_FLAGS_ENTITY = {
    facts.flags | forward: facts.entity
    for facts in _KINDS.values() for forward in (0, DeclFlags.HAS_FORWARD)
}
_DECL_FLAGS = {int(flags): flags for flags in _FLAGS_ENTITY}
merges_as = _FLAGS_ENTITY.__getitem__


@dataclass(slots=True, unsafe_hash=True)
class IdentEntry:
    name: str
    flags: DeclFlags
    blob_offset: int
    blob_len: int


@dataclass
class ModuleFile:
    """In-memory handle over one module file.  It carries no module id, and
    neither does the file, so files stay relocatable: a module's id is its
    position in the module map.

    The identifier table stays in its columns: `rows` maps each name, in
    file (byte) order, to its row index into `flags`, `blob_offsets` and
    `blob_lens`.  `find` and `entries` build `IdentEntry` values on demand;
    `table` is the whole-table view."""

    module_name: str
    imports: tuple[str, ...]
    rows: dict[str, int]
    flags: Sequence[int]
    blob_offsets: Sequence[int]
    blob_lens: Sequence[int]
    blob_region: bytes
    content_hash: int
    summary_bytes: int

    def find(self, name: str) -> IdentEntry | None:
        row = self.rows.get(name)
        if row is None:
            return None
        flags = _DECL_FLAGS[self.flags[row]]
        return IdentEntry(name, flags, self.blob_offsets[row], self.blob_lens[row])

    def entries(self) -> Iterator[IdentEntry]:
        """Every row as an `IdentEntry`, in file order."""
        flags = map(_DECL_FLAGS.__getitem__, self.flags)
        return map(IdentEntry, self.rows, flags, self.blob_offsets, self.blob_lens)

    def blobs(self) -> Iterator[tuple[str, int, bytes]]:
        """Every row's name, flags byte and blob, in file order, building no
        `IdentEntry`."""
        region = self.blob_region
        spans = map(slice, self.blob_offsets, map(operator.add, self.blob_offsets, self.blob_lens))
        return zip(self.rows, self.flags, map(region.__getitem__, spans))

    @property
    def table(self) -> dict[str, IdentEntry]:
        return dict(zip(self.rows, self.entries()))

    def blob(self, entry: IdentEntry) -> bytes:
        return self.blob_region[entry.blob_offset:entry.blob_offset + entry.blob_len]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.rows)


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


def _blob(origin: tuple[str, int], payload: bytes) -> bytes:
    path = origin[0].encode("utf-8")
    return b"".join((_U32.pack(len(path)), path, _U32.pack(origin[1]), payload))


def encode_blob(decl: Decl) -> bytes:
    return _blob(decl.origin, encode_payload(decl))


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
    origin, which are exactly `encode_payload` of that declaration."""
    r = Reader(blob)
    origin = (r.lpstr(), r.u32())
    payload_start = r.pos
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
    if not r.at_end():
        raise CorruptTable("trailing bytes after declaration")
    decl = Decl(name, kind, fields, enumerators, alias_target, params, returns, origin)
    return decl, blob[payload_start:]


# --- file emission ---


def _emit(module_name: str, imports: Sequence[str], rows: Sequence[tuple[str, DeclFlags, bytes]]) -> bytes:
    """Emit file bytes for (name, flags, blob) rows, blobs laid out in table
    order, and patch the content hash."""
    region = bytearray()

    def entry_fields(row: tuple[DeclFlags, bytes]) -> tuple[int, int, int]:
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

    flags: dict[str, DeclFlags] = {}
    winner: dict[str, tuple[Decl, bytes]] = {}  # canonical blob source per name, with its payload
    for header in headers:
        for decl in header.items:
            flags[decl.name] = flags.get(decl.name, DeclFlags(0)) | _KINDS[decl.kind].flags
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
    check_flags(_DECL_FLAGS, flags)
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


def deserialize_decl(module: ModuleFile, entry: IdentEntry | str) -> tuple[Decl, bytes]:
    """Decode one declaration blob into the decl and its payload bytes;
    costs `blob_len` bytes.  `entry` is the declaration's row, as a caller
    that has already found it hands it in, or its name, to find here."""
    if isinstance(entry, str):
        name, entry = entry, module.find(entry)
        if entry is None:
            raise UnknownIdentifier(name)
    return decode_blob(module.blob(entry))


# --- merging ---


def _fold(firsts: dict[EntityKind, tuple], kind: EntityKind, name: str, candidate: tuple) -> None:
    """Take one candidate of a name, in module order, into `firsts`: the
    first candidate of each `EntityKind` stays, and a later one of that kind
    must carry the same payload bytes, or OdrViolation names both modules.
    A candidate is (its declaration or blob, its module, its payload)."""
    first = firsts.setdefault(kind, candidate)
    if first[2] != candidate[2]:
        raise OdrViolation(name, first[1], candidate[1])


def merge_entities(
    decls: Sequence[Candidate],
    module_order: Mapping[str, int] | None = None,
) -> Entity:
    """Collapse same-name declarations from several modules into one entity.

    Each candidate is folded (`_fold`) in module order, lowest module id
    first and then module name, so neither the entity (the first candidate
    of the top-ranked kind) nor, among several conflicts, the one reported
    (the first met) depends on input order.
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
        _fold(firsts, _KINDS[candidate[0].kind].entity, name, candidate)
    kind = max(firsts)
    decl, module, payload = firsts[kind]
    return Entity(decl.name, kind, payload, module, decl)


def build_pch(modules: Iterable[ModuleFile]) -> bytes:
    """Merge whole modules, given in module map order, into one precompiled
    cache named `__pch__`.  Each summary's raw rows are folded as the stream
    yields it, keyed by each payload's tag, so per name only the first blob
    of each kind is held, and an ODR conflict is raised at the first module
    that brings one.  A name's row is its winning blob, verbatim, with that
    kind's flags.  A blob head whose tag does not merge as its row's flags
    raises CorruptTable; the rest of a payload is checked when decoded.
    """
    merged: dict[str, dict[EntityKind, tuple[bytes, str, bytes]]] = {}
    for mf in modules:
        module = mf.module_name
        for name, flags, blob in mf.blobs():
            payload = split_blob(blob)[1]
            facts = _TAG_FACTS.get(payload[0])
            if facts is None or facts.entity is not merges_as(flags):
                raise CorruptTable(f"blob of '{name}' in module '{module}' does not match its flags")
            _fold(merged.setdefault(name, {}), facts.entity, name, (blob, module, payload))
    rows = []
    for name, firsts in merged.items():
        blob, _, payload = firsts[max(firsts)]
        rows.append((name, _TAG_FACTS[payload[0]].flags, blob))
    return _emit(PCH_MODULE_NAME, (), rows)
