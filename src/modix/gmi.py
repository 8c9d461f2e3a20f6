"""The global module index: an on-disk identifier-to-modules map.

The lexical flavor records containment only; the semantic flavor also marks
DEFINES on the modules holding an identifier's top-ranked non-forward kind, the
one winner rule that ODR merging applies (`modfile.EntityKind`), which is what
lets a session load one module and skip those that merely forward-declare it.

File layout (little-endian)::

    magic "GMIX" | version u32 = 2 | flavor u8 (1 lexical, 2 semantic) |
    excluded_count u32 | excluded names (u32 len + UTF-8 each) |
    module_count u32 | rows: (module_id u32 | u32 len + name | content_hash u64) |
    entry_count u32 | entries sorted by identifier bytes:
        (u32 len + identifier | posting_count u32 | postings: (module_id u32 | flags u8))

Module rows have distinct ids and names; each entry's postings have strictly
increasing module ids, so the first defining posting is the lowest-id one.

Each module row stores that module file's BLAKE2b-64 content hash (see
``modfile``); validation rehashes every indexed module file in full and
compares.  Version 1 indexes (FNV-1a hashes) are rejected.

Indexes are immutable after load; building is a batch single-writer step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum, IntFlag
from pathlib import Path
from typing import Iterable

from ._wire import Reader, Writer, byte_order, decode_flags
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import BadMagic, BadVersion, CorruptTable, WrongFlavor
from .modfile import FILE_EXTENSION, EntityKind, ModuleFile, content_hashes, merges_as
from .modfile import read_module_summary  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .modulemap import ModuleMap, Overlay, root_file

MAGIC = b"GMIX"
VERSION = 2
INDEX_FILE_NAME = "modules.gmi"
LEXICAL_INDEX_FILE_NAME = "modules.lexical.gmi"


class IndexFlavor(Enum):
    LEXICAL = 1
    SEMANTIC = 2


def index_file_name(flavor: IndexFlavor) -> str:
    """A corpus's file name for an index of this flavor."""
    return INDEX_FILE_NAME if flavor is IndexFlavor.SEMANTIC else LEXICAL_INDEX_FILE_NAME


class PostingFlags(IntFlag):
    MENTIONS = 1
    DEFINES = 2


_DEFINES = PostingFlags.MENTIONS | PostingFlags.DEFINES
# Every flags byte that `build_index` writes; loads reject any other byte.
_POSTING_FLAGS = {int(flags): flags for flags in (PostingFlags.MENTIONS, _DEFINES)}

# One posting: module_id u32, flags u8.
_POSTING_ROW = struct.Struct("<IB")


@dataclass(frozen=True, slots=True)
class Posting:
    module: str
    flags: PostingFlags


@dataclass(frozen=True)
class IndexedModule:
    module_id: int
    name: str
    content_hash: int


@dataclass(frozen=True)
class GlobalIndex:
    """A loaded index: each identifier, in file order, to its postings."""

    flavor: IndexFlavor
    modules: tuple[IndexedModule, ...]
    postings: dict[str, tuple[Posting, ...]]
    excluded: tuple[str, ...]

    def entry(self, identifier: str) -> tuple[Posting, ...]:
        return self.postings.get(identifier, ())


def build_index(map: ModuleMap, modules: Iterable[ModuleFile], flavor: IndexFlavor) -> bytes:
    """Index the identifier tables of the summaries handed in, given in module
    map order; a module's id is its position in the map.

    Map modules not handed in are excluded: they contribute no postings but
    are recorded so sessions know to consult them directly.  Each indexed
    module's content hash is stored for staleness checks.
    """
    rows: list[IndexedModule] = []
    postings: dict[str, list[tuple[int, EntityKind]]] = {}  # in map order
    for mf in modules:
        module_id = map.module_id(mf.module_name)
        rows.append(IndexedModule(module_id, mf.module_name, mf.content_hash))
        for entry in mf.table.values():
            postings.setdefault(entry.name, []).append((module_id, merges_as(entry.flags)))
    indexed = {row.name for row in rows}
    excluded = [name for name in map.names if name not in indexed]

    def write_postings(plist: list[tuple[int, EntityKind]]) -> None:
        top = max(kind for _, kind in plist)
        defines = flavor is IndexFlavor.SEMANTIC and top is not EntityKind.FORWARD
        w.u32(len(plist))
        for module_id, kind in plist:
            flags = _DEFINES if defines and kind is top else PostingFlags.MENTIONS
            w.raw(_POSTING_ROW.pack(module_id, flags))

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u8(flavor.value)
    w.u32(len(excluded))
    for name in byte_order(excluded):
        w.lpstr(name)
    w.u32(len(rows))
    for row in rows:
        w.u32(row.module_id)
        w.lpstr(row.name)
        w.u64(row.content_hash)
    w.table(postings, write_postings)
    return w.getvalue()


def load_index(data: bytes) -> GlobalIndex:
    if data[:4] != MAGIC:
        raise BadMagic("not an index file (bad magic)")
    r = Reader(data, 4)
    version = r.u32()
    if version != VERSION:
        raise BadVersion(f"unsupported index version {version}")
    try:
        flavor = IndexFlavor(r.u8())
    except ValueError as exc:
        raise CorruptTable("unknown index flavor") from exc
    excluded = tuple(r.lpstr() for _ in range(r.u32()))
    modules = tuple(
        IndexedModule(r.u32(), r.lpstr(), r.u64()) for _ in range(r.u32())
    )
    names = {m.module_id: m.name for m in modules}
    if len(names) != len(modules) or len(set(names.values())) != len(modules):
        raise CorruptTable("duplicate module id or name in the module table")

    # One Posting per distinct (module_id, flags) row, checked when first
    # seen; a module has at most three, against tens of postings each.
    interned: dict[tuple[int, int], Posting] = {}

    def intern(row: tuple[int, int], identifier: str) -> Posting:
        module_id, flags = row
        if module_id not in names:
            raise CorruptTable(f"'{identifier}' posts unknown module {module_id}")
        posting = interned[row] = Posting(names[module_id], decode_flags(_POSTING_FLAGS, flags))
        return posting

    def read_postings(identifier: str) -> tuple[Posting, ...]:
        postings = []
        prev = -1
        for row in r.rows(_POSTING_ROW, r.u32()):
            if row[0] <= prev:
                raise CorruptTable(f"'{identifier}' posts unordered module {row[0]}")
            prev = row[0]
            postings.append(interned.get(row) or intern(row, identifier))
        return tuple(postings)

    postings = r.table(read_postings)
    if not r.at_end():
        raise CorruptTable("trailing bytes after index entries")
    return GlobalIndex(flavor, modules, postings, excluded)


def lookup(index: GlobalIndex, identifier: str) -> list[tuple[str, PostingFlags]]:
    """All modules containing the identifier, in module id order."""
    return [(p.module, p.flags) for p in index.entry(identifier)]


def lookup_definition(index: GlobalIndex, identifier: str) -> str | None:
    """The module defining the identifier: the lowest id among the modules
    holding its top-ranked kind, or None when only forward declarations are
    indexed."""
    if index.flavor is not IndexFlavor.SEMANTIC:
        raise WrongFlavor("lookup_definition requires a semantic index")
    for p in index.entry(identifier):
        if p.flags & PostingFlags.DEFINES:
            return p.module
    return None


# --- staleness ---


class Staleness(Enum):
    FRESH = "fresh"
    HASH_MISMATCH = "hash-mismatch"
    MISSING = "missing"


@dataclass(frozen=True)
class StalenessReport:
    statuses: tuple[tuple[str, Staleness], ...]

    @property
    def all_fresh(self) -> bool:
        return all(s is Staleness.FRESH for _, s in self.statuses)

    def modules_with(self, status: Staleness) -> tuple[str, ...]:
        return tuple(name for name, s in self.statuses if s is status)


def validate_index(
    index: GlobalIndex, module_dir: str | Path, overlay: Overlay | None = None
) -> StalenessReport:
    """Compare stored hashes against the module files on disk, remapped by
    the overlay if one is given; touches nothing."""
    statuses: list[tuple[str, Staleness]] = []
    for row in index.modules:
        path = Path(root_file(module_dir, row.name + FILE_EXTENSION, overlay))
        if not path.is_file():
            statuses.append((row.name, Staleness.MISSING))
            continue
        hashes = content_hashes(path.read_bytes())
        ok = hashes is not None and hashes[0] == hashes[1] == row.content_hash
        statuses.append((row.name, Staleness.FRESH if ok else Staleness.HASH_MISMATCH))
    return StalenessReport(tuple(statuses))
