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
`Posting`; `GlobalIndex.entry`, the index's one lookup, builds an
identifier's postings when asked.

The self-hash is BLAKE2b-64 over the file with that field zeroed, like a
module file's content hash (see ``modfile``), which each module row stores;
loads check the self-hash before decoding.  `modix validate` rehashes every
indexed module file in full (`file_digest`); an index open compares only the
stored hash in its 16-byte head (`file_head`).  Versions 1 to 3 are rejected.

Indexes are immutable after load; building is a batch single-writer step.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from pathlib import Path
from typing import Callable, Sequence

from ._wire import Reader, Writer, byte_order, check_flags, first_false, key_at, read_artifact
from ._wire import HEAD_SIZE, sealed, self_hashes, stored_hash
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import BadMagic, BadVersion, CorruptTable, HashMismatch, MissingIndex, reading
from .modfile import FILE_EXTENSION, EntityKind, Release, content_hashes
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
    lookup and `shared` after: the index's one lookup."""

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


def build_index(map: ModuleMap, release: Release, flavor: IndexFlavor) -> bytes:
    """Index a folded release (`modfile.fold_rows`); a module's id is its
    position in the map.  Map modules not folded are excluded: they
    contribute no postings but are recorded so sessions know to consult them
    directly.  Each indexed module's content hash is stored for staleness
    checks.  DEFINES marks the postings of a name's top-ranked kind, the
    fold winner's."""
    ids = {name: map.module_id(name) for name, _ in release.modules}
    excluded = [name for name in map.names if name not in ids]

    module_ids: list[int] = []
    posting_flags: list[int] = []

    def posting_end(plist: list[tuple[str, EntityKind]]) -> tuple[int]:
        top = max(kind for _, kind in plist) if flavor is IndexFlavor.SEMANTIC else None
        for module, kind in plist:
            module_ids.append(ids[module])
            defines = kind is top and top is not EntityKind.FORWARD
            posting_flags.append(_DEFINES if defines else PostingFlags.MENTIONS)
        return (len(module_ids),)

    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # self-hash patched below
    w.u8(flavor.value)
    w.u32(len(excluded))
    for name in byte_order(excluded):
        w.lpstr(name)
    w.u32(len(release.modules))
    for name, content_hash in release.modules:
        w.u32(ids[name])
        w.lpstr(name)
        w.u64(content_hash)
    w.table(release.postings, "I", posting_end)
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


def read_index(path: str | Path, overlay: Overlay = Overlay()) -> tuple[GlobalIndex, int]:
    """The index file at `path`, remapped by the overlay, and its size in
    bytes.  No file there raises MissingIndex naming `path`; a corrupt one
    raises its CorruptModule prefixed with the file's path."""
    real = overlay.apply(str(path))
    data = read_artifact(real)
    if data is None:
        raise MissingIndex(f"index file not found: {path}")
    with reading(real):
        return load_index(data), len(data)


# --- staleness ---


class Staleness(Enum):
    FRESH = "fresh"
    HASH_MISMATCH = "hash-mismatch"
    MISSING = "missing"


def file_digest(path: str) -> int | Staleness:
    """A module file's content hash when its stored hash holds, else why not."""
    if (data := read_artifact(path)) is None:
        return Staleness.MISSING
    hashes = content_hashes(data)
    return hashes[0] if hashes is not None and hashes[0] == hashes[1] else Staleness.HASH_MISMATCH


def file_head(path: str) -> int | Staleness:
    """A module file's stored hash, from its 16-byte head and not checked, else why not."""
    if (head := read_artifact(path, HEAD_SIZE)) is None:
        return Staleness.MISSING
    stored = stored_hash(head)
    return Staleness.HASH_MISMATCH if stored is None else stored


def validate_index(
    index: GlobalIndex,
    module_dir: str | Path,
    overlay: Overlay = Overlay(),
    digests: dict[str, int | Staleness] | None = None,
    probe: Callable[[str], int | Staleness] = file_digest,
) -> dict[str, Staleness]:
    """Each indexed module's staleness, in index module order: its stored
    hash against what `probe` finds in its module file on disk, remapped by
    the overlay; touches nothing.  `digests` memoizes each module's probe,
    so checking several indexes reads a file once."""
    digests = {} if digests is None else digests
    verdict: dict[str, Staleness] = {}
    for row in index.modules:
        if row.name not in digests:
            digests[row.name] = probe(root_file(module_dir, row.name + FILE_EXTENSION, overlay))
        status = digests[row.name]
        if not isinstance(status, Staleness):
            status = Staleness.FRESH if status == row.content_hash else Staleness.HASH_MISMATCH
        verdict[row.name] = status
    return verdict
