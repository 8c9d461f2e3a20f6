"""The global module index: an on-disk identifier-to-modules map.

The lexical flavor records containment only; the semantic flavor also marks
DEFINES on the modules holding an identifier's top-ranked non-forward kind, the
one winner rule that ODR merging applies (`modfile.EntityKind`), which is what
lets a session load one module and skip those that merely forward-declare it.

File layout (little-endian)::

    magic "GMIX" | version u32 = 5 | self_hash u64 | flavor u8 (1 lexical, 2 semantic) |
    excluded_count u32 | excluded names (u32 len + UTF-8 each), in map order |
    module table, rows in map order (see ``_wire.Writer.rows``):
        module_count u32 | module_id u32 x m | name_end u32 x m | content_hash u64 x m | names |
    identifier table, rows in identifier byte order (see ``_wire``):
        entry_count u32 | key_end u32 x n | posting_end u32 x n | identifiers |
    module_id u32 x p | flags u8 x p    (p postings, every entry's back to back)

An indexed module's id is its map position; the excluded modules take the
positions no id has, in order, so the index records the merge order and an
index session reads no module map (rebuild the index after editing the map).
An entry's postings run from the previous entry's ``posting_end`` (0 for the
first) to its own, with strictly increasing module ids, so the first defining
posting is the lowest-id one.  The layout is as long as versions 3 and 4.  A
load checks every column in bulk and builds no `Posting`; `GlobalIndex.entry`,
the index's one lookup, builds an identifier's postings when asked.

The self-hash is BLAKE2b-64 over the file with that field zeroed, like a
module file's content hash (see ``modfile``), which each module row stores;
loads check the self-hash before decoding.  `modix validate` rehashes every
indexed module file in full (`validate_index`); an index open reads only their
16-byte heads (`stale_heads`).  Versions 1 to 4 are rejected.

Indexes are immutable after load; building is a batch single-writer step.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from pathlib import Path
from typing import Sequence

from ._wire import Reader, Writer, check_flags, first_false, key_at, read_artifact
from ._wire import HEAD_SIZE, sealed, self_hashes, stored_hash, stored_hashes
from ._wire import fnv1a_64  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import BadMagic, BadVersion, CorruptTable, HashMismatch, MissingIndex, reading
from .modfile import FILE_EXTENSION, EntityKind, Release, content_hashes
from .modfile import read_module_summary  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .modulemap import ModuleMap, Overlay, root_file

MAGIC = b"GMIX"
VERSION = 5
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


@dataclass(frozen=True)
class GlobalIndex:
    """A loaded index, in columns: `module_names` and `module_hashes` in map
    order, `order` each indexed or `excluded` module's map position, and
    `rows` each identifier's row, in file order; row i's postings are
    positions `posting_ends[i - 1]` (0 for the first) to `posting_ends[i]`
    of `posting_modules` and `posting_flags`.  `entry` returns one
    identifier's postings, each (module, flags) `Posting` built at its first
    lookup and `shared` after: the index's one lookup."""

    flavor: IndexFlavor
    module_names: tuple[str, ...]
    module_hashes: Sequence[int]
    order: dict[str, int]
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
    for name in excluded:
        w.lpstr(name)
    w.u32(len(release.modules))
    w.column("I", ids.values())
    w.rows(list(ids), "Q", [[content_hash for _, content_hash in release.modules]])
    w.table(release.postings, "I", posting_end)
    w.column("I", module_ids)
    w.column("B", posting_flags)
    return sealed(w.getvalue())


def load_index(data: bytes) -> GlobalIndex:
    """Parse index bytes, validating the self-hash, framing, the module
    table (ids in range, no id or name twice) and every column of the
    identifier table: identifiers strictly increasing, posting ends
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
    count = r.u32()
    positions = r.column("I", count).tolist()
    module_names, (hashes,) = r.rows(count, "Q")
    total = count + len(excluded)
    names = dict(zip(positions, module_names))
    if len(names) != count or max(positions, default=-1) >= total:
        raise CorruptTable(f"module ids repeat or reach past {total} modules")
    order = dict(zip(module_names, positions))
    order.update(zip(excluded, sorted(set(range(total)).difference(positions))))
    if len(order) != total:
        raise CorruptTable("duplicate module name in the module table")

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
    return GlobalIndex(flavor, tuple(module_names), hashes, order, rows, ends, module_ids, flags,
                       excluded, _Postings(names))


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


def _module_files(index: GlobalIndex, module_dir: str | Path, overlay: Overlay = Overlay()) -> list[str]:
    """Each indexed module's file, spelled as `root_file` does, in index order."""
    prefix = root_file(module_dir, "")  # each path is then one concatenation
    paths = [prefix + name + FILE_EXTENSION for name in index.module_names]
    return list(map(overlay.apply, paths)) if overlay.mappings else paths


def stale_heads(
    index: GlobalIndex, module_dir: str | Path, overlay: Overlay = Overlay()
) -> tuple[str, ...]:
    """The indexed modules, in index order, whose file, remapped by the
    overlay, is missing or whose 16-byte head does not store the hash the
    index records.  Each head is read once; one comparison with the index's
    hash column clears a fresh index."""
    heads = [read_artifact(path, HEAD_SIZE) for path in _module_files(index, module_dir, overlay)]
    if stored_hashes(heads) == index.module_hashes:
        return ()
    rows = zip(index.module_names, heads, index.module_hashes)
    return tuple(name for name, head, recorded in rows if head is None or stored_hash(head) != recorded)


def validate_index(
    index: GlobalIndex, module_dir: str | Path, digests: dict[str, int | Staleness] | None = None
) -> dict[str, Staleness]:
    """Each indexed module's staleness, in index module order: its stored
    hash against its module file on disk, rehashed in full (`file_digest`);
    touches nothing.  `digests` memoizes each module's digest, so checking
    several indexes reads a file once."""
    digests = {} if digests is None else digests
    verdict: dict[str, Staleness] = {}
    paths = _module_files(index, module_dir)
    for name, path, content_hash in zip(index.module_names, paths, index.module_hashes):
        if name not in digests:
            digests[name] = file_digest(path)
        status = digests[name]
        if not isinstance(status, Staleness):
            status = Staleness.FRESH if status == content_hash else Staleness.HASH_MISMATCH
        verdict[name] = status
    return verdict
