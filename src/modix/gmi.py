"""The global module index: an on-disk identifier-to-modules map.

The lexical flavor records containment only; the semantic flavor also marks
DEFINES on the modules holding an identifier's top-ranked non-forward kind, the
one winner rule that ODR merging applies (`modfile.EntityKind`), which is what
lets a session load one module and skip those that merely forward-declare it.

File layout (little-endian)::

    magic "GMIX" | version u32 = 4 | self_hash u64 | flavor u8 (1 lexical, 2 semantic) |
    excluded_count u32 | excluded names (u32 len + UTF-8 each) |
    module_count u32 | rows: (module_id u32 | u32 len + name | content_hash u64) |
    identifier table, rows in identifier byte order (see ``_wire``):
        entry_count u32 | key_end u32 x n | posting_end u32 x n | identifiers |
    module_id u32 x p | flags u8 x p    (p postings, every entry's back to back)

An entry's postings run from the previous entry's ``posting_end`` (0 for the
first) to its own.  Module rows have distinct ids and names; each entry's
postings have strictly increasing module ids, so the first defining posting
is the lowest-id one.  The layout is exactly as long as version 3's
row-at-a-time one.  A load checks every column in bulk and builds no
`Posting`; `GlobalIndex.entry` builds an identifier's postings when asked.

The self-hash is BLAKE2b-64 over the file with that field zeroed, like a
module file's content hash (see ``modfile``), which each module row stores;
loads check the self-hash before decoding, and validation rehashes every
indexed module file in full and compares.  Versions 1 to 3 are rejected.

Indexes are immutable after load; building is a batch single-writer step.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from pathlib import Path
from typing import Iterable, Sequence

from ._wire import Reader, Writer, byte_order, check_flags, first_false, key_at, sealed
from ._wire import self_hashes
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import BadMagic, BadVersion, CorruptTable, HashMismatch, WrongFlavor
from .modfile import FILE_EXTENSION, EntityKind, ModuleFile, content_hashes, merges_as
from .modfile import read_module_summary  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .modulemap import ModuleMap, Overlay, root_file

MAGIC = b"GMIX"
VERSION = 4
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

@dataclass(slots=True, unsafe_hash=True)
class Posting:
    module: str
    flags: PostingFlags


class _Postings(dict):
    """Each distinct (module id, flags byte) posting of an index, built at
    its first lookup and shared after: a module has at most two."""

    def __init__(self, module_names: dict[int, str]):
        super().__init__()
        self.module_names = module_names

    def __missing__(self, key: tuple[int, int]) -> Posting:
        module_id, flags = key
        posting = self[key] = Posting(self.module_names[module_id], _POSTING_FLAGS[flags])
        return posting


@dataclass(slots=True, unsafe_hash=True)
class IndexedModule:
    module_id: int
    name: str
    content_hash: int


@dataclass(frozen=True)
class GlobalIndex:
    """A loaded index, its identifier table still in columns: `rows` maps
    each identifier, in file order, to its row; row i's postings are
    positions `posting_ends[i - 1]` (0 for the first) to `posting_ends[i]`
    of `posting_modules` and `posting_flags`.  `entry` returns one
    identifier's postings, each (module, flags) `Posting` built at its first
    lookup and `shared` after; `postings` is the whole-table view."""

    flavor: IndexFlavor
    modules: tuple[IndexedModule, ...]
    rows: dict[str, int]
    posting_ends: Sequence[int]
    posting_modules: Sequence[int]
    posting_flags: Sequence[int]
    excluded: tuple[str, ...]
    shared: _Postings = field(compare=False, repr=False)

    def entry(self, identifier: str) -> tuple[Posting, ...]:
        row = self.rows.get(identifier)
        if row is None:
            return ()
        span = slice(self.posting_ends[row - 1] if row else 0, self.posting_ends[row])
        keys = zip(self.posting_modules[span], self.posting_flags[span])
        return tuple(map(self.shared.__getitem__, keys))

    @property
    def postings(self) -> dict[str, tuple[Posting, ...]]:
        return {identifier: self.entry(identifier) for identifier in self.rows}


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
        for name, flags in zip(mf.rows, mf.flags):
            postings.setdefault(name, []).append((module_id, merges_as(flags)))
    indexed = {row.name for row in rows}
    excluded = [name for name in map.names if name not in indexed]

    module_ids: list[int] = []
    posting_flags: list[int] = []

    def posting_end(plist: list[tuple[int, EntityKind]]) -> tuple[int]:
        top = max(kind for _, kind in plist)
        defines = flavor is IndexFlavor.SEMANTIC and top is not EntityKind.FORWARD
        for module_id, kind in plist:
            module_ids.append(module_id)
            posting_flags.append(_DEFINES if defines and kind is top else PostingFlags.MENTIONS)
        return (len(module_ids),)

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # self-hash patched below
    w.u8(flavor.value)
    w.u32(len(excluded))
    for name in byte_order(excluded):
        w.lpstr(name)
    w.u32(len(rows))
    for row in rows:
        w.u32(row.module_id)
        w.lpstr(row.name)
        w.u64(row.content_hash)
    w.table(postings, "I", posting_end)
    w.column("I", module_ids)
    w.column("B", posting_flags)
    return sealed(w.getvalue())


def load_index(data: bytes) -> GlobalIndex:
    """Parse index bytes, validating the self-hash, framing, the module
    rows and every column: identifiers strictly increasing, posting ends
    non-decreasing, each posting's module known and its flags a byte that
    `build_index` writes, and each entry's module ids strictly increasing.
    The checks run over whole columns; only a failed one looks for the first
    bad posting to name it."""
    if data[:4] != MAGIC:
        raise BadMagic("not an index file (bad magic)")
    r = Reader(data, 4)
    version = r.u32()
    if version != VERSION:
        raise BadVersion(f"unsupported index version {version}")
    if r.u64() != self_hashes(data)[1]:
        raise HashMismatch("index self-hash mismatch")
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

    rows, (ends,) = r.table("I")
    end_list = ends.tolist()
    if end_list != sorted(end_list):
        row = first_false(map(operator.le, end_list, end_list[1:])) + 1
        raise CorruptTable(f"posting ends decrease at '{key_at(rows, row)}'")
    module_ids = r.column("I", ends[-1] if ends else 0)
    flags = r.column("B", len(module_ids))
    if not r.at_end():
        raise CorruptTable("trailing bytes after index entries")

    def identifier(posting: int) -> str:
        return key_at(rows, bisect.bisect_right(end_list, posting))

    ids = module_ids.tolist()
    # A posting whose module id does not exceed the one before it must start
    # its entry.
    unordered = set(itertools.compress(itertools.count(1), map(operator.ge, ids, ids[1:])))
    unordered.difference_update(end_list)
    if unordered:
        at = min(unordered)
        raise CorruptTable(f"'{identifier(at)}' posts unordered module {ids[at]}")
    if not names.keys() >= set(ids):
        at = first_false(map(names.__contains__, ids))
        raise CorruptTable(f"'{identifier(at)}' posts unknown module {ids[at]}")
    check_flags(_POSTING_FLAGS, flags)
    return GlobalIndex(flavor, modules, rows, ends, module_ids, flags, excluded, _Postings(names))


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


def _file_digest(path: Path) -> int | Staleness:
    """A module file's content hash when its stored hash holds, else why not."""
    if not path.is_file():
        return Staleness.MISSING
    hashes = content_hashes(path.read_bytes())
    return hashes[0] if hashes is not None and hashes[0] == hashes[1] else Staleness.HASH_MISMATCH


def validate_index(
    index: GlobalIndex,
    module_dir: str | Path,
    overlay: Overlay | None = None,
    digests: dict[str, int | Staleness] | None = None,
) -> StalenessReport:
    """Compare stored hashes against the module files on disk, remapped by
    the overlay if one is given; touches nothing.  `digests` memoizes each
    module's `_file_digest`, so checking several indexes hashes a file once."""
    digests = {} if digests is None else digests
    statuses: list[tuple[str, Staleness]] = []
    for row in index.modules:
        if row.name not in digests:
            path = Path(root_file(module_dir, row.name + FILE_EXTENSION, overlay))
            digests[row.name] = _file_digest(path)
        status = digests[row.name]
        if not isinstance(status, Staleness):
            status = Staleness.FRESH if status == row.content_hash else Staleness.HASH_MISMATCH
        statuses.append((row.name, status))
    return StalenessReport(tuple(statuses))
