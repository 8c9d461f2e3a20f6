"""Binary per-library module files: compile, summarize, lazily deserialize,
merge, and build the monolithic precompiled cache.

File layout (all integers little-endian)::

    magic "MODF" | version u32 = 2 | content_hash u64 |
    name (u32 len + UTF-8) |
    import_count u32 | imports (u32 len + UTF-8 each) |
    ident_count u32 | entries sorted by name bytes:
        (u32 len + UTF-8 name | flags u8 | blob_offset u64 | blob_len u32) |
    blob_region_len u64 | blob_region bytes

The content hash is BLAKE2b with an 8-byte digest over the whole file with
the hash field zeroed, stored little-endian; every load and every index
validation recomputes it.  Version 1 files (FNV-1a hashes) are rejected.
Each blob is the canonical serialization of one declaration: a kind tag, then
length-prefixed fields in source order, then the origin (header path relative
to the module root, plus line).  The origin is excluded from the payload bytes
used for one-definition-rule comparisons so that byte-identical content in
differently named headers still de-duplicates.

Module files are immutable once written; readers never mutate shared state.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import declang
from ._wire import Reader, Writer, digest64
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
    declaration; IS_ALIAS / IS_FUNCTION qualify its nature."""

    HAS_DEFINITION = 1
    HAS_FORWARD = 2
    IS_ALIAS = 4
    IS_FUNCTION = 8


_KIND_TAGS = {
    DeclKind.STRUCT_DEF: 1,
    DeclKind.STRUCT_FWD: 2,
    DeclKind.ENUM_DEF: 3,
    DeclKind.ALIAS: 4,
    DeclKind.FUNC_DECL: 5,
}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}

_KIND_FLAGS = {
    DeclKind.STRUCT_DEF: DeclFlags.HAS_DEFINITION,
    DeclKind.ENUM_DEF: DeclFlags.HAS_DEFINITION,
    DeclKind.ALIAS: DeclFlags.HAS_DEFINITION | DeclFlags.IS_ALIAS,
    DeclKind.FUNC_DECL: DeclFlags.HAS_DEFINITION | DeclFlags.IS_FUNCTION,
    DeclKind.STRUCT_FWD: DeclFlags.HAS_FORWARD,
}

# Rank used by ODR merging: real definitions, then functions, aliases, forwards.
_KIND_RANK = {
    DeclKind.STRUCT_DEF: 3,
    DeclKind.ENUM_DEF: 3,
    DeclKind.FUNC_DECL: 2,
    DeclKind.ALIAS: 1,
    DeclKind.STRUCT_FWD: 0,
}


class EntityKind(Enum):
    DEFINITION = "definition"
    FORWARD = "forward"
    ALIAS = "alias"
    FUNCTION = "function"


_RANK_ENTITY_KIND = {
    3: EntityKind.DEFINITION,
    2: EntityKind.FUNCTION,
    1: EntityKind.ALIAS,
    0: EntityKind.FORWARD,
}


@dataclass(frozen=True)
class IdentEntry:
    name: str
    flags: DeclFlags
    blob_offset: int
    blob_len: int


@dataclass
class ModuleFile:
    """In-memory handle over one module file.  It carries no module id, and
    neither does the file, so files stay relocatable: a module's id is its
    position in the module map."""

    module_name: str
    imports: tuple[str, ...]
    ident_table: tuple[IdentEntry, ...]
    blob_region: bytes
    content_hash: int
    summary_bytes: int
    _names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._names = tuple(e.name for e in self.ident_table)

    def find(self, name: str) -> IdentEntry | None:
        i = bisect.bisect_left(self._names, name)
        if i < len(self._names) and self._names[i] == name:
            return self.ident_table[i]
        return None

    @property
    def names(self) -> tuple[str, ...]:
        return self._names


@dataclass(frozen=True)
class Entity:
    """The merged view of one name across the modules that declare it."""

    name: str
    kind: EntityKind
    canonical_payload: bytes
    defining_module: str | None
    contributing_modules: frozenset[str]
    decl: Decl


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
    w.u8(_KIND_TAGS[decl.kind])
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


def decode_blob(blob: bytes) -> Decl:
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
    origin = (r.lpstr(), r.u32())
    if not r.at_end():
        raise CorruptTable("trailing bytes after declaration")
    return declang.with_deps(
        Decl(
            name,
            kind,
            fields=fields,
            enumerators=enumerators,
            alias_target=alias_target,
            params=params,
            returns=returns,
            origin=origin,
        )
    )


# --- file emission ---


def _emit(module_name: str, imports: Sequence[str], decls: Sequence[tuple[str, DeclFlags, Decl]]) -> bytes:
    """Emit file bytes for (name, flags, decl) rows; sorts the table and
    patches the content hash."""
    rows = sorted(decls, key=lambda row: row[0].encode("utf-8"))
    blobs = Writer()
    entries: list[IdentEntry] = []
    offset = 0
    for name, flags, decl in rows:
        blob = encode_blob(decl)
        blobs.raw(blob)
        entries.append(IdentEntry(name, flags, offset, len(blob)))
        offset += len(blob)
    region = blobs.getvalue()

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # hash patched below
    w.lpstr(module_name)
    w.u32(len(imports))
    for imp in imports:
        w.lpstr(imp)
    w.u32(len(entries))
    for e in entries:
        w.lpstr(e.name)
        w.u8(int(e.flags))
        w.u64(e.blob_offset)
        w.u32(e.blob_len)
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
            f = _KIND_FLAGS[decl.kind]
            flags[decl.name] = flags.get(decl.name, DeclFlags(0)) | f
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
    """Parse module file bytes, validating framing, table order, blob bounds,
    and the content hash.

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
    entries: list[IdentEntry] = []
    prev_key: bytes | None = None
    for _ in range(r.u32()):
        name = r.lpstr()
        flags = DeclFlags(r.u8())
        offset = r.u64()
        length = r.u32()
        key = name.encode("utf-8")
        if prev_key is not None and key <= prev_key:
            raise CorruptTable("identifier table not strictly sorted")
        prev_key = key
        entries.append(IdentEntry(name, flags, offset, length))
    region_len = r.u64()
    summary_bytes = r.pos
    region = r.raw(region_len)
    if not r.at_end():
        raise CorruptTable("trailing bytes after blob region")
    for e in entries:
        if e.blob_offset + e.blob_len > region_len:
            raise CorruptTable(f"blob for '{e.name}' out of range")
    if content_hashes(data)[1] != stored_hash:
        raise HashMismatch(f"content hash mismatch in module '{module_name}'")
    return ModuleFile(
        module_name=module_name,
        imports=imports,
        ident_table=tuple(entries),
        blob_region=region,
        content_hash=stored_hash,
        summary_bytes=summary_bytes,
    )


def read_modules(module_dir: str | Path, names: Sequence[str]) -> list[ModuleFile]:
    """Summaries of `module_dir/<name>.pcm` for each name, in order."""
    module_dir = Path(module_dir)
    modules = []
    for name in names:
        path = module_dir / f"{name}{FILE_EXTENSION}"
        if not path.is_file():
            raise ModuleNotFound(name)
        modules.append(read_module_summary(path.read_bytes()))
    return modules


def deserialize_decl(module: ModuleFile, name: str) -> Decl:
    """Decode one declaration blob; costs `blob_len` bytes."""
    entry = module.find(name)
    if entry is None:
        raise UnknownIdentifier(name)
    blob = module.blob_region[entry.blob_offset:entry.blob_offset + entry.blob_len]
    return decode_blob(blob)


# --- merging ---


def merge_entities(
    decls: Sequence[tuple[Decl, str]],
    module_order: Mapping[str, int] | None = None,
) -> Entity:
    """Collapse same-name declarations from several modules into one entity.

    Within each declaration kind the payload bytes must agree; across kinds
    the highest rank wins (definition > function > alias > forward).  Among
    equal winners the lowest module id (falling back to module name) supplies
    the canonical payload, which also makes the result independent of input
    order.
    """
    if not decls:
        raise ValueError("merge_entities requires at least one declaration")
    name = decls[0][0].name
    for decl, _ in decls:
        if decl.name != name:
            raise ValueError(f"mixed names in merge: '{name}' vs '{decl.name}'")

    def order_key(module: str) -> tuple[int, str]:
        if module_order is not None and module in module_order:
            return (module_order[module], module)
        return (2**32, module)

    by_rank: dict[int, list[tuple[Decl, str, bytes]]] = {}
    for decl, module in decls:
        by_rank.setdefault(_KIND_RANK[decl.kind], []).append(
            (decl, module, encode_payload(decl))
        )
    for group in by_rank.values():
        group.sort(key=lambda item: order_key(item[1]))
        first_payload = group[0][2]
        for _, module, payload in group[1:]:
            if payload != first_payload:
                raise OdrViolation(name, group[0][1], module)

    top = max(by_rank)
    winner_decl, winner_module, winner_payload = by_rank[top][0]
    return Entity(
        name=name,
        kind=_RANK_ENTITY_KIND[top],
        canonical_payload=winner_payload,
        defining_module=winner_module,
        contributing_modules=frozenset(module for _, module in decls),
        decl=winner_decl,
    )


def build_pch(modules: Sequence[ModuleFile]) -> bytes:
    """Merge whole modules into one precompiled cache named `__pch__`.

    Duplicate names collapse to the winning declaration; its flags replace the
    per-module flag unions.  A module's position in `modules` is its id for
    the tie-break, so callers pass them in module map order.
    """
    order = {mf.module_name: position for position, mf in enumerate(modules)}
    gathered: dict[str, list[tuple[Decl, str]]] = {}
    for mf in modules:
        for entry in mf.ident_table:
            gathered.setdefault(entry.name, []).append(
                (deserialize_decl(mf, entry.name), mf.module_name)
            )
    rows = []
    for name, candidates in gathered.items():
        entity = merge_entities(candidates, order)
        rows.append((name, _KIND_FLAGS[entity.decl.kind], entity.decl))
    return _emit(PCH_MODULE_NAME, (), rows)
