"""Name-lookup sessions over a compiled module corpus.

A session extends name lookup through one of five strategies:

* ``preload-all``  -- read every module file (summaries and all blobs) up
  front into the resident name table; lookups hit it only.
* ``pch``          -- read the single merged ``__pch__`` file's summary up
  front; blobs stream in lazily.
* ``textual``      -- legacy fallback: a rootmap maps identifiers to header
  files which are re-parsed on demand, includes and all, into the resident
  name table.
* ``lexical-gmi``  -- consult the on-disk index and load every module that
  mentions the identifier, false positives included.
* ``semantic-gmi`` -- consult the index's definition postings and load only
  the defining module; forward-only uses are synthesized without any load.

Each strategy is one startup and one resolve method, paired in
``Session._STRATEGIES``.  The resident name table maps a name to its merge
candidates: each declaration with its source (a module or a header) and its
payload bytes, sliced from the blob or encoded once when a header is parsed.

Local checkouts replace their release modules under one rule: a name's
candidates are the local declarations plus those of the release modules not
checked out.  pch and textual, whose merged cache and rootmap cannot be so
filtered, resolve a name either copy of a checkout declares as lexical-gmi
does, charging the lexical index, those release summaries and posted loads;
the modules the index excludes load at the first such lookup.

Costs are simulated, not measured: every module load charges a fixed
per-module overhead (standing in for eager side effects such as source-location
preallocation), every byte that the strategy logically reads is counted, and
ticks derive from both.  ``sim_memory_bytes`` is the sum over loaded modules of
overhead + table bytes + deserialized blob bytes, plus the resident index,
rootmap, and parsed header text where a strategy keeps those around.  A false
positive is a module that a lookup loaded and that has not yet been the
defining module of a resolved hit.  A session counts bytes read, their read
ticks, declarations deserialized and lookups where that work happens.
``stats()`` derives the load order, module count, headers parsed and false
positives from session state, and adds the per-module overhead:
``sim_memory_bytes`` = bytes read + modules loaded * overhead bytes, and
``ticks`` = read ticks + modules loaded * overhead ticks.

``mark()`` records where those counters stand, in constant time: an offset
into the load order plus the raw counts.  ``stats(since=mark)`` returns the
costs accrued after the mark, whose ``load_order`` holds only the modules
loaded since; ``stats()`` alone is the same since an all-zero mark.  So a
statement's cost delta takes constant time plus its new loads, however many
modules the session already holds.

Sessions are single-threaded by contract; distinct sessions over the same
immutable corpus may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path, PurePath
from typing import NamedTuple
from . import gmi as gmi_mod
from . import modfile
from .declang import HeaderAST, Need, parse_header
from .errors import (
    IndexStale,
    MissingPch,
    MissingRootmap,
    ModuleNotFound,
    UnreadableFile,
    WrongFlavor,
)
from .gmi import GlobalIndex, IndexFlavor, PostingFlags, Staleness, validate_index
from .modfile import FILE_EXTENSION, PCH_FILE_NAME, PCH_MODULE_NAME, DeclFlags, Entity, ModuleFile
from .modfile import Candidate, merge_entities
from .modulemap import ModuleMap, Overlay, SearchPaths, find_local_module
from .modulemap import read_text, root_file
from .modulemap import resolve_module_path  # noqa: F401 -- kept for perfbench/spans.py to wrap

ROOTMAP_FILE_NAME = "modules.rootmap"


class Strategy(Enum):
    PRELOAD_ALL = "preload-all"
    PCH = "pch"
    TEXTUAL = "textual"
    LEXICAL_GMI = "lexical-gmi"
    SEMANTIC_GMI = "semantic-gmi"


# The index flavor each index strategy reads.
INDEX_FLAVORS = {
    Strategy.LEXICAL_GMI: IndexFlavor.LEXICAL,
    Strategy.SEMANTIC_GMI: IndexFlavor.SEMANTIC,
}


@dataclass(frozen=True)
class CostModel:
    """Scalar cost knobs; per-module overhead models eager side effects."""

    per_module_overhead_bytes: int = 16384
    per_module_overhead_ticks: int = 100
    bytes_per_tick: int = 4096

    def __post_init__(self) -> None:
        for name in ("per_module_overhead_bytes", "per_module_overhead_ticks", "bytes_per_tick"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(slots=True, unsafe_hash=True)
class LoadStats:
    """Deterministic cost snapshot.  ``false_positive_loads`` counts modules
    that a lookup loaded and that have not yet been the defining module of a
    resolved hit; a later hit can redeem an earlier load, so unlike every
    other counter it may decrease."""

    modules_loaded: int = 0
    load_order: tuple[str, ...] = ()
    decls_deserialized: int = 0
    bytes_read: int = 0
    headers_parsed: int = 0
    sim_memory_bytes: int = 0
    ticks: int = 0
    lookups: int = 0
    false_positive_loads: int = 0

    def __sub__(self, other: "LoadStats") -> "LoadStats":
        if self.load_order[: len(other.load_order)] != other.load_order:
            raise ValueError("stats snapshots are not from the same session timeline")
        return LoadStats(
            modules_loaded=self.modules_loaded - other.modules_loaded,
            load_order=self.load_order[len(other.load_order):],
            decls_deserialized=self.decls_deserialized - other.decls_deserialized,
            bytes_read=self.bytes_read - other.bytes_read,
            headers_parsed=self.headers_parsed - other.headers_parsed,
            sim_memory_bytes=self.sim_memory_bytes - other.sim_memory_bytes,
            ticks=self.ticks - other.ticks,
            lookups=self.lookups - other.lookups,
            false_positive_loads=self.false_positive_loads - other.false_positive_loads,
        )


class Mark(NamedTuple):
    """Where a session's counters stood: ``Session.mark()``'s O(1) record,
    from which ``Session.stats(since=...)`` derives the costs accrued since."""

    load_offset: int = 0
    decls_deserialized: int = 0
    bytes_read: int = 0
    read_ticks: int = 0
    headers_parsed: int = 0
    lookups: int = 0
    false_positive_loads: int = 0


_ORIGIN = Mark()


class ResolutionOutcome(Enum):
    RESOLVED = "resolved"
    IMPLICIT_FORWARD = "implicit-forward"
    NOT_FOUND = "not-found"


@dataclass(slots=True, unsafe_hash=True)
class Resolution:
    outcome: ResolutionOutcome
    entity: Entity | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome is not ResolutionOutcome.NOT_FOUND


_NOT_FOUND = Resolution(ResolutionOutcome.NOT_FOUND)
_IMPLICIT_FORWARD = Resolution(ResolutionOutcome.IMPLICIT_FORWARD)


class _Marker(Enum):
    ABSENT = "absent"
    FORWARD_ONLY = "forward-only"


class Session:
    """One interpreter session: fixed strategy, cumulative stats."""

    def __init__(
        self,
        map: ModuleMap,
        paths: SearchPaths,
        strategy: Strategy,
        cost: CostModel | None = None,
        index_path: str | Path | None = None,
        allow_stale: bool = False,
        overlay: Overlay | None = None,
    ):
        self.map = map
        self.paths = paths
        self.strategy = strategy
        self.cost = cost if cost is not None else CostModel()
        self.overlay = overlay if overlay is not None else Overlay()

        self._loaded: dict[str, ModuleFile] = {}
        # The same order as `_loaded`'s keys.  It is append-only, so a mark
        # is an offset into it and a delta slices out just the new loads.
        self._load_order: list[str] = []
        self._loading: set[str] = set()
        self._direct: list[str] = []
        self._shadowed: set[str] = set()
        self._touched: set[str] = set()
        self._index: GlobalIndex | None = None
        self._rootmap: dict[str, str] | None = None
        self._parsed_headers: set[str] = set()
        self._resident: dict[str, list[Candidate]] = {}
        self._payloads: dict[bytes, bytes] = {}  # each distinct payload, held once
        self._merge_order: dict[str, int] = {name: i for i, name in enumerate(map.names)}
        self._cache: dict[str, Entity | _Marker] = {}
        self._unredeemed: set[str] = set()

        self._decls = 0
        self._bytes = 0
        self._read_ticks = 0
        self._lookups = 0

        startup, _ = self._STRATEGIES[strategy]
        startup(self, index_path, allow_stale)

    # -- startup --

    def _start_preload(self, index_path: str | Path | None, allow_stale: bool) -> None:
        for name in self.map.names:
            self._load_module(name, resolution=False)
        for name in self._load_order:
            for entry in self._loaded[name].entries():
                self._resident.setdefault(entry.name, []).append(self._deserialize(name, entry))

    def _start_pch(self, index_path: str | Path | None, allow_stale: bool) -> None:
        try:
            self._load_module(PCH_MODULE_NAME, resolution=False)
        except ModuleNotFound as exc:
            raise MissingPch(f"no {PCH_FILE_NAME} under the search paths") from exc
        self._load_direct(allow_stale)

    def _start_textual(self, index_path: str | Path | None, allow_stale: bool) -> None:
        path = root_file(self.paths.release_root, ROOTMAP_FILE_NAME, self.overlay)
        text = read_text(path, MissingRootmap(f"no {ROOTMAP_FILE_NAME} in the release root"))
        self._charge_read(len(text.encode("utf-8")))
        self._rootmap = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ident, _, header = line.partition(" ")
            if ident and header and ident not in self._rootmap:
                self._rootmap[ident] = header.strip()
        self._load_direct(allow_stale)

    def _start_index(self, index_path: str | Path | None, allow_stale: bool) -> None:
        self._read_index(index_path, allow_stale)
        self._load_direct(allow_stale)
        self._load_excluded()

    def _read_index(self, index_path: str | Path | None, allow_stale: bool) -> None:
        """Load the index of the flavor this strategy reads: `index_path` if
        given, else the release root's file of that flavor."""
        wanted = INDEX_FLAVORS.get(self.strategy, IndexFlavor.LEXICAL)
        if index_path is None:
            index_path = root_file(self.paths.release_root, gmi_mod.index_file_name(wanted))
        index, size = gmi_mod.read_index(index_path, self.overlay)
        if index.flavor is not wanted:
            raise WrongFlavor(
                f"strategy {self.strategy.value} needs a {wanted.name.lower()} index, "
                f"got {index.flavor.name.lower()}"
            )
        if not allow_stale:
            report = validate_index(index, self.paths.release_root, self.overlay)
            if not report.all_fresh:
                raise IndexStale(tuple(
                    name for name, status in report.statuses if status is not Staleness.FRESH
                ))
        self._index = index
        self._charge_read(size)

    def _load_direct(self, allow_stale: bool) -> None:
        """Local checkouts shadow the release: their summaries come up eagerly
        and index postings for them are ignored.  pch and textual also read the
        lexical index and the release copies' summaries (see the module doc)."""
        for name in self.map.names:
            if find_local_module(self.paths, name, self.overlay) is not None:
                self._shadowed.add(name)
                self._load_module(name, resolution=False)
                self._direct.append(name)
        if self._index is None and self._direct:
            release = self.paths.release_root
            self._read_index(None, allow_stale)
            for name in self._direct:
                path = root_file(release, name + FILE_EXTENSION, self.overlay)
                try:
                    release_copy = modfile.read_module(path, name)
                except ModuleNotFound:
                    if not allow_stale:
                        raise
                    # A deleted release copy declared what the index posts for it.
                    self._touched.update(
                        ident for ident, postings in self._index.postings.items()
                        if any(p.module == name for p in postings)
                    )
                else:
                    self._charge_read(release_copy.summary_bytes)
                    self._touched.update(release_copy.names)
                self._touched.update(self._loaded[name].names)

    def _load_excluded(self) -> None:
        """Modules excluded from the index are consulted directly as well; one
        whose import is missing raises here again at the next call."""
        for name in self._index.excluded:
            if name in self._shadowed:
                continue
            if self._load_if_present(name, resolution=False):
                self._direct.append(name)
            self._shadowed.add(name)

    # -- cost accounting --

    def _charge_read(self, nbytes: int) -> None:
        """Count bytes read into resident memory; ticks round up per read."""
        self._bytes += nbytes
        if self.cost.bytes_per_tick:
            self._read_ticks += -(-nbytes // self.cost.bytes_per_tick)

    # -- module loading --

    def load_module(self, name: str) -> None:
        """Load one module (and its transitive imports first); idempotent."""
        self._load_module(name, resolution=False)

    def _load_module(self, name: str, resolution: bool) -> None:
        if name in self._loaded or name in self._loading:
            return
        self._loading.add(name)
        try:
            path = find_local_module(self.paths, name, self.overlay) or root_file(
                self.paths.release_root, name + FILE_EXTENSION, self.overlay
            )
            mf = modfile.read_module(path, name)
            for imp in mf.imports:
                self._load_module(imp, resolution)
            self._charge_read(mf.summary_bytes)
            self._loaded[name] = mf
            self._load_order.append(name)
            if resolution:
                self._unredeemed.add(name)
        finally:
            self._loading.discard(name)

    def _load_if_present(self, name: str, resolution: bool) -> bool:
        """Load a module; False when its own file is missing.  A missing
        import of a module that does load still raises."""
        try:
            self._load_module(name, resolution)
        except ModuleNotFound as exc:
            if exc.name != name:
                raise
            return False
        return True

    def _deserialize(self, module_name: str, entry: modfile.IdentEntry) -> Candidate:
        """Decode the declaration of a row already found in a loaded module."""
        decl, payload = modfile.deserialize_decl(self._loaded[module_name], entry)
        self._decls += 1
        self._charge_read(entry.blob_len)
        return decl, module_name, self._payloads.setdefault(payload, payload)

    # -- resolution --

    def resolve(self, identifier: str, need: Need) -> Resolution:
        """Extend name lookup to the corpus under this session's strategy.

        Results are cached per identifier, whatever the need: repeated
        resolutions perform no new loads or deserializations.
        """
        self._lookups += 1
        cached = self._cache.get(identifier)
        if cached is None:
            _, resolve_uncached = self._STRATEGIES[self.strategy]
            cached = self._cache[identifier] = resolve_uncached(self, identifier)
        return self._to_resolution(need, cached)

    def _to_resolution(self, need: Need, cached: Entity | _Marker) -> Resolution:
        if cached is _Marker.ABSENT:
            return _NOT_FOUND
        if cached is _Marker.FORWARD_ONLY:
            return _IMPLICIT_FORWARD if need is Need.FORWARD_OK else _NOT_FOUND
        entity = cached
        if need is Need.DEFINITION and entity.kind is modfile.EntityKind.FORWARD:
            return _NOT_FOUND
        self._unredeemed.discard(entity.defining_module)
        return Resolution(ResolutionOutcome.RESOLVED, entity)

    def _direct_hits(self, identifier: str) -> list[tuple[str, modfile.IdentEntry]]:
        """Each direct module holding the identifier, with its row."""
        found = ((name, self._loaded[name].find(identifier)) for name in self._direct)
        return [(name, entry) for name, entry in found if entry is not None]

    def _merge(self, candidates: list[Candidate]) -> Entity | _Marker:
        return merge_entities(candidates, self._merge_order) if candidates else _Marker.ABSENT

    def _merge_resident(self, identifier: str) -> Entity | _Marker:
        return self._merge(self._resident.get(identifier, []))

    def _resolve_pch(self, identifier: str) -> Entity | _Marker:
        if identifier in self._touched:
            self._load_excluded()
            return self._resolve_lexical(identifier)
        entry = self._loaded[PCH_MODULE_NAME].find(identifier)
        return self._merge([] if entry is None else [self._deserialize(PCH_MODULE_NAME, entry)])

    def _resolve_textual(self, identifier: str) -> Entity | _Marker:
        if identifier in self._touched:
            self._load_excluded()
            return self._resolve_lexical(identifier)
        header = self._rootmap.get(identifier)
        if header is not None:
            self._parse_header_cascade(header)
        return self._merge_resident(identifier)

    def _parse_header_cascade(self, relpath: str) -> None:
        """Parse a header and, transitively, every header it includes that is
        not parsed yet, then commit them all in pre-order.  Every read and
        parse comes first, so one that fails commits nothing and the same
        lookup fails again.  A path that is absolute or climbs out with ``..``
        fails like an unreadable file: textual lookups read only under the
        release root."""
        parsed: dict[str, tuple[str, HeaderAST]] = {}  # in pre-order

        def visit(rel: str) -> None:
            if rel in self._parsed_headers or rel in parsed:
                return
            if PurePath(rel).is_absolute() or ".." in PurePath(rel).parts:
                raise UnreadableFile(f"cannot read {rel}: outside the release root")
            text = read_text(root_file(self.paths.release_root, rel, self.overlay))
            ast = parse_header(text, rel)
            parsed[rel] = (text, ast)
            for include in ast.includes:
                visit(include)

        visit(relpath)
        for rel, (text, ast) in parsed.items():
            self._parsed_headers.add(rel)
            self._charge_read(len(text.encode("utf-8")))
            self._merge_order[rel] = len(self._merge_order)
            for decl in ast.items:
                candidate = (decl, rel, modfile.encode_payload(decl))
                self._resident.setdefault(decl.name, []).append(candidate)

    def _visible(self, postings: tuple[gmi_mod.Posting, ...]) -> list[gmi_mod.Posting]:
        return [p for p in postings if p.module not in self._shadowed]

    def _load_posted(self, name: str, identifier: str) -> list[Candidate]:
        """Load the module an index posting names and return its declaration
        of the identifier: none when a stale index (``allow_stale``) lists a
        module that was rebuilt without it or deleted."""
        if not self._load_if_present(name, resolution=True):
            return []
        entry = self._loaded[name].find(identifier)
        return [] if entry is None else [self._deserialize(name, entry)]

    def _resolve_lexical(self, identifier: str) -> Entity | _Marker:
        candidates: list[Candidate] = []
        for p in self._visible(self._index.entry(identifier)):
            candidates += self._load_posted(p.module, identifier)
        for name, entry in self._direct_hits(identifier):
            candidates.append(self._deserialize(name, entry))
        return self._merge(candidates)

    def _resolve_semantic(self, identifier: str) -> Entity | _Marker:
        hits = self._direct_hits(identifier)
        candidates = [
            self._deserialize(name, entry)
            for name, entry in hits
            if entry.flags & DeclFlags.HAS_DEFINITION
        ]
        every = self._index.entry(identifier)
        postings = self._visible(every)
        first = next((p for p in postings if p.flags & PostingFlags.DEFINES), None)
        posted = [] if first is None else self._load_posted(first.module, identifier)
        if all(decl.is_forward for decl, _, _ in posted) and any(
            p.flags & PostingFlags.DEFINES for p in every
        ):
            # The top-ranked kind is out of reach (a local checkout shadows
            # it, or allow_stale let its module be rebuilt without it), but a
            # lower-ranked one may win: load every posting as lexical-gmi does.
            for p in postings:
                if p is not first:
                    posted += self._load_posted(p.module, identifier)
            postings = []
        candidates += posted
        if candidates:
            return self._merge(candidates)
        # Forward declarations alone never force a load; the equivalence
        # oracle keeps this synthesis honest.
        return _Marker.FORWARD_ONLY if hits or postings else _Marker.ABSENT

    # Each strategy's startup and uncached resolve, side by side.
    _STRATEGIES = {
        Strategy.PRELOAD_ALL: (_start_preload, _merge_resident),
        Strategy.PCH: (_start_pch, _resolve_pch),
        Strategy.TEXTUAL: (_start_textual, _resolve_textual),
        Strategy.LEXICAL_GMI: (_start_index, _resolve_lexical),
        Strategy.SEMANTIC_GMI: (_start_index, _resolve_semantic),
    }

    # -- stats --

    def mark(self) -> Mark:
        """Where the counters stand now; O(1), whatever has been loaded."""
        return Mark(
            len(self._load_order),
            self._decls,
            self._bytes,
            self._read_ticks,
            len(self._parsed_headers),
            self._lookups,
            len(self._unredeemed),
        )

    def stats(self, since: Mark | None = None) -> LoadStats:
        """Pure value snapshot; no side effects.

        With a ``mark()`` of this session, the costs accrued since that mark:
        what ``stats() - before`` gives for a snapshot ``before`` taken at
        the mark, without taking that snapshot.  Its ``load_order`` holds
        only the modules loaded since, and its ``false_positive_loads`` may
        be negative.  Without a mark, the costs since the session began.
        """
        base = _ORIGIN if since is None else since
        order = self._load_order
        loaded = len(order) - base.load_offset
        bytes_read = self._bytes - base.bytes_read
        read_ticks = self._read_ticks - base.read_ticks
        # A slice from offset 0 would copy the whole order twice.
        return LoadStats(
            modules_loaded=loaded,
            load_order=tuple(order[base.load_offset:] if base.load_offset else order),
            decls_deserialized=self._decls - base.decls_deserialized,
            bytes_read=bytes_read,
            headers_parsed=len(self._parsed_headers) - base.headers_parsed,
            sim_memory_bytes=bytes_read + loaded * self.cost.per_module_overhead_bytes,
            ticks=read_ticks + loaded * self.cost.per_module_overhead_ticks,
            lookups=self._lookups - base.lookups,
            false_positive_loads=len(self._unredeemed) - base.false_positive_loads,
        )


def open_session(
    map: ModuleMap,
    paths: SearchPaths,
    strategy: Strategy,
    cost: CostModel | None = None,
    index_path: str | Path | None = None,
    allow_stale: bool = False,
    overlay: Overlay | None = None,
) -> Session:
    """Open a session, charging the strategy's startup costs.  An index
    strategy reads its flavor's index file in the release root, or
    `index_path` when given; the other strategies ignore `index_path`."""
    return Session(map, paths, strategy, cost, index_path, allow_stale, overlay)
