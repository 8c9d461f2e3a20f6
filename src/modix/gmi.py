"""The global module index: an on-disk identifier-to-modules map.

The lexical flavor records containment only; the semantic flavor also records
which module defines each identifier, which is what lets a session skip
loading modules that merely forward-declare a name.

File layout (little-endian)::

    magic "GMIX" | version u32 = 2 | flavor u8 (1 lexical, 2 semantic) |
    excluded_count u32 | excluded names (u32 len + UTF-8 each) |
    module_count u32 | rows: (module_id u32 | u32 len + name | content_hash u64) |
    entry_count u32 | entries sorted by identifier bytes:
        (u32 len + identifier | posting_count u32 | postings: (module_id u32 | flags u8))

Each module row stores that module file's BLAKE2b-64 content hash (see
``modfile``); validation rehashes every indexed module file in full and
compares.  Version 1 indexes (FNV-1a hashes) are rejected.

Indexes are immutable after load; building is a batch single-writer step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntFlag
from pathlib import Path
from typing import Sequence

from ._wire import Reader, Writer
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import BadMagic, BadVersion, CorruptTable, WrongFlavor
from .modfile import FILE_EXTENSION, DeclFlags, content_hashes, read_modules
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


@dataclass(frozen=True)
class Posting:
    module_id: int
    flags: PostingFlags


@dataclass(frozen=True)
class IndexEntry:
    identifier: str
    postings: tuple[Posting, ...]


@dataclass(frozen=True)
class IndexedModule:
    module_id: int
    name: str
    content_hash: int


@dataclass(frozen=True)
class GlobalIndex:
    flavor: IndexFlavor
    modules: tuple[IndexedModule, ...]
    entries: tuple[IndexEntry, ...]
    excluded: tuple[str, ...]
    file_size: int

    def _by_name(self) -> dict[str, IndexEntry]:
        cached = getattr(self, "_entry_cache", None)
        if cached is None:
            cached = {e.identifier: e for e in self.entries}
            object.__setattr__(self, "_entry_cache", cached)
        return cached

    def _module_names(self) -> dict[int, str]:
        cached = getattr(self, "_module_cache", None)
        if cached is None:
            cached = {m.module_id: m.name for m in self.modules}
            object.__setattr__(self, "_module_cache", cached)
        return cached

    def module_name(self, module_id: int) -> str:
        return self._module_names()[module_id]

    def entry(self, identifier: str) -> IndexEntry | None:
        return self._by_name().get(identifier)


def build_index(
    map: ModuleMap,
    module_dir: str | Path,
    flavor: IndexFlavor,
    excluded: Sequence[str] = (),
) -> bytes:
    """Index every non-excluded module's identifier table; a module's id is
    its position in the map.

    Excluded modules contribute no postings but are recorded so sessions know
    to consult them directly; each indexed module's content hash is stored for
    staleness checks.
    """
    excluded_set = set(excluded)
    indexed = [name for name in map.names if name not in excluded_set]
    rows: list[IndexedModule] = []
    postings: dict[str, list[Posting]] = {}
    for name, mf in zip(indexed, read_modules(module_dir, indexed)):
        module_id = map.module_id(name)
        rows.append(IndexedModule(module_id, name, mf.content_hash))
        for entry in mf.ident_table:
            flags = PostingFlags.MENTIONS
            if flavor is IndexFlavor.SEMANTIC and entry.flags & DeclFlags.HAS_DEFINITION:
                flags |= PostingFlags.DEFINES
            postings.setdefault(entry.name, []).append(Posting(module_id, flags))

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u8(flavor.value)
    excluded_sorted = sorted(excluded_set)
    w.u32(len(excluded_sorted))
    for name in excluded_sorted:
        w.lpstr(name)
    w.u32(len(rows))
    for row in rows:
        w.u32(row.module_id)
        w.lpstr(row.name)
        w.u64(row.content_hash)
    identifiers = sorted(postings, key=lambda s: s.encode("utf-8"))
    w.u32(len(identifiers))
    for identifier in identifiers:
        w.lpstr(identifier)
        plist = sorted(postings[identifier], key=lambda p: p.module_id)
        w.u32(len(plist))
        for p in plist:
            w.u32(p.module_id)
            w.u8(int(p.flags))
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
    entries = []
    for _ in range(r.u32()):
        identifier = r.lpstr()
        postings = tuple(
            Posting(r.u32(), PostingFlags(r.u8())) for _ in range(r.u32())
        )
        entries.append(IndexEntry(identifier, postings))
    if not r.at_end():
        raise CorruptTable("trailing bytes after index entries")
    return GlobalIndex(flavor, modules, tuple(entries), excluded, len(data))


def lookup(index: GlobalIndex, identifier: str) -> list[tuple[str, PostingFlags]]:
    """All modules containing the identifier, in module id order."""
    entry = index.entry(identifier)
    if entry is None:
        return []
    return [(index.module_name(p.module_id), p.flags) for p in entry.postings]


def lookup_definition(index: GlobalIndex, identifier: str) -> str | None:
    """The module defining the identifier (lowest id among byte-identical
    duplicates), or None when only forward declarations are indexed."""
    if index.flavor is not IndexFlavor.SEMANTIC:
        raise WrongFlavor("lookup_definition requires a semantic index")
    entry = index.entry(identifier)
    if entry is None:
        return None
    for p in entry.postings:
        if p.flags & PostingFlags.DEFINES:
            return index.module_name(p.module_id)
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
