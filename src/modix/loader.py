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
``Session._STRATEGIES``.  The resident name table maps a name to its
declarations, each with its source: a module or a header.

Costs are simulated, not measured: every module load charges a fixed
per-module overhead (standing in for eager side effects such as source-location
preallocation), every byte that the strategy logically reads is counted, and
ticks derive from both.  ``sim_memory_bytes`` is the sum over loaded modules of
overhead + table bytes + deserialized blob bytes, plus the resident index,
rootmap, and parsed header text where a strategy keeps those around.  A false
positive is a module that a lookup loaded and that has not yet been the
defining module of a resolved hit.  Every counter is kept where its work
happens, so a stats snapshot only reads values.

Sessions are single-threaded by contract; distinct sessions over the same
immutable corpus may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from . import gmi as gmi_mod
from . import modfile
from .declang import Decl, Need, parse_header
from .errors import (
    IndexStale,
    MissingIndex,
    MissingPch,
    MissingRootmap,
    ModuleNotFound,
    WrongFlavor,
)
from .gmi import GlobalIndex, IndexFlavor, PostingFlags, Staleness, validate_index
from .modfile import PCH_FILE_NAME, PCH_MODULE_NAME, DeclFlags, Entity, ModuleFile, merge_entities
from .modulemap import ModuleMap, Overlay, SearchPaths, find_local_module
from .modulemap import resolve_module_path, root_file

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


@dataclass(frozen=True)
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


class ResolutionOutcome(Enum):
    RESOLVED = "resolved"
    IMPLICIT_FORWARD = "implicit-forward"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class Resolution:
    identifier: str
    need: Need
    outcome: ResolutionOutcome
    entity: Entity | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome is not ResolutionOutcome.NOT_FOUND


class _Marker(Enum):
    ABSENT = "absent"
    FORWARD_ONLY = "forward-only"


@dataclass
class _Loaded:
    mf: ModuleFile
    decls: dict[str, Decl] = field(default_factory=dict)


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
        self.overlay = overlay

        self._loaded: dict[str, _Loaded] = {}
        # The same order as `_loaded`'s keys, kept as a list because stats()
        # copies it twice per statement, and copying a list is about three
        # times faster than iterating a dict's keys.
        self._load_order: list[str] = []
        self._loading: set[str] = set()
        self._direct: list[str] = []
        self._shadowed: set[str] = set()
        self._index: GlobalIndex | None = None
        self._rootmap: dict[str, str] | None = None
        self._parsed_headers: set[str] = set()
        self._resident: dict[str, list[tuple[Decl, str]]] = {}
        self._merge_order: dict[str, int] = {name: i for i, name in enumerate(map.names)}
        self._cache: dict[str, Entity | _Marker] = {}
        self._unredeemed: set[str] = set()

        self._decls = 0
        self._bytes = 0
        self._headers = 0
        self._mem = 0
        self._ticks = 0
        self._lookups = 0

        startup, _ = self._STRATEGIES[strategy]
        startup(self, index_path, allow_stale)

    # -- startup --

    def _start_preload(self, index_path: str | Path | None, allow_stale: bool) -> None:
        for name in self.map.names:
            self._load_module(name, resolution=False)
        for name in self._load_order:
            for ident in self._loaded[name].mf.names:
                decl = self._deserialize(name, ident)
                self._resident.setdefault(ident, []).append((decl, name))

    def _start_pch(self, index_path: str | Path | None, allow_stale: bool) -> None:
        try:
            self._load_module(PCH_MODULE_NAME, resolution=False)
        except ModuleNotFound as exc:
            raise MissingPch(f"no {PCH_FILE_NAME} under the search paths") from exc
        self._load_direct()

    def _start_textual(self, index_path: str | Path | None, allow_stale: bool) -> None:
        path = root_file(self.paths.release_root, ROOTMAP_FILE_NAME, self.overlay)
        if not Path(path).is_file():
            raise MissingRootmap(f"no {ROOTMAP_FILE_NAME} in the release root")
        text = Path(path).read_text("utf-8")
        self._charge_read(len(text.encode("utf-8")))
        self._rootmap = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ident, _, header = line.partition(" ")
            if ident and header and ident not in self._rootmap:
                self._rootmap[ident] = header.strip()
        self._load_direct()

    def _start_index(self, index_path: str | Path | None, allow_stale: bool) -> None:
        if index_path is None:
            raise MissingIndex("a global index path is required for this strategy")
        real = Path(self._apply_overlay(str(index_path)))
        if not real.is_file():
            raise MissingIndex(f"index file not found: {index_path}")
        data = real.read_bytes()
        index = gmi_mod.load_index(data)
        wanted = INDEX_FLAVORS[self.strategy]
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
        self._charge_read(len(data))
        self._load_direct()
        # Modules excluded from the index are consulted directly as well.
        for name in index.excluded:
            if name in self._loaded:
                continue
            self._shadowed.add(name)
            try:
                self._load_module(name, resolution=False)
            except ModuleNotFound:
                continue
            self._direct.append(name)

    def _load_direct(self) -> None:
        """Local checkouts shadow the release: their summaries come up eagerly
        and any index postings for them are ignored."""
        for name in self.map.names:
            if find_local_module(self.paths, name, self.overlay) is not None:
                self._shadowed.add(name)
                self._load_module(name, resolution=False)
                self._direct.append(name)

    # -- cost accounting --

    def _apply_overlay(self, path: str) -> str:
        return self.overlay.apply(path) if self.overlay is not None else path

    def _charge_read(self, nbytes: int) -> None:
        """Count bytes read into resident memory; ticks round up per read."""
        self._bytes += nbytes
        self._mem += nbytes
        if self.cost.bytes_per_tick:
            self._ticks += -(-nbytes // self.cost.bytes_per_tick)

    # -- module loading --

    def load_module(self, name: str) -> None:
        """Load one module (and its transitive imports first); idempotent."""
        self._load_module(name, resolution=False)

    def _load_module(self, name: str, resolution: bool) -> None:
        if name in self._loaded or name in self._loading:
            return
        self._loading.add(name)
        try:
            path, _ = resolve_module_path(self.paths, name, self.overlay)
            mf = modfile.read_module_summary(Path(path).read_bytes())
            for imp in mf.imports:
                self._load_module(imp, resolution)
            self._charge_read(mf.summary_bytes)
            self._mem += self.cost.per_module_overhead_bytes
            self._ticks += self.cost.per_module_overhead_ticks
            self._loaded[name] = _Loaded(mf)
            self._load_order.append(name)
            if resolution:
                self._unredeemed.add(name)
        finally:
            self._loading.discard(name)

    def _deserialize(self, module_name: str, identifier: str) -> Decl:
        lm = self._loaded[module_name]
        decl = lm.decls.get(identifier)
        if decl is not None:
            return decl
        entry = lm.mf.find(identifier)
        decl = modfile.deserialize_decl(lm.mf, identifier)
        self._decls += 1
        self._charge_read(entry.blob_len)
        lm.decls[identifier] = decl
        return decl

    # -- resolution --

    def resolve(self, identifier: str, need: Need) -> Resolution:
        """Extend name lookup to the corpus under this session's strategy.

        Results are cached per identifier: repeated resolutions perform no new
        loads or deserializations, except that a definition-need request can
        upgrade an earlier forward-only synthesis.
        """
        self._lookups += 1
        cached = self._cache.get(identifier)
        if cached is None or (cached is _Marker.FORWARD_ONLY and need is Need.DEFINITION):
            _, resolve_uncached = self._STRATEGIES[self.strategy]
            cached = resolve_uncached(self, identifier, need)
            self._cache[identifier] = cached
        return self._to_resolution(identifier, need, cached)

    def _to_resolution(
        self, identifier: str, need: Need, cached: Entity | _Marker
    ) -> Resolution:
        if cached is _Marker.ABSENT:
            return Resolution(identifier, need, ResolutionOutcome.NOT_FOUND)
        if cached is _Marker.FORWARD_ONLY:
            if need is Need.FORWARD_OK:
                return Resolution(identifier, need, ResolutionOutcome.IMPLICIT_FORWARD)
            return Resolution(identifier, need, ResolutionOutcome.NOT_FOUND)
        entity = cached
        if need is Need.DEFINITION and entity.kind is modfile.EntityKind.FORWARD:
            return Resolution(identifier, need, ResolutionOutcome.NOT_FOUND)
        self._unredeemed.discard(entity.defining_module)
        return Resolution(identifier, need, ResolutionOutcome.RESOLVED, entity)

    def _direct_hits(self, identifier: str) -> list[str]:
        return [name for name in self._direct if self._loaded[name].mf.find(identifier)]

    def _merge(self, candidates: list[tuple[Decl, str]]) -> Entity | _Marker:
        return merge_entities(candidates, self._merge_order) if candidates else _Marker.ABSENT

    def _merge_resident(self, identifier: str, need: Need) -> Entity | _Marker:
        return self._merge(self._resident.get(identifier, []))

    def _resolve_pch(self, identifier: str, need: Need) -> Entity | _Marker:
        # A local checkout wins wholesale: the merged cache has no per-module
        # provenance left to shadow-filter.
        hits = self._direct_hits(identifier)
        if not hits and self._loaded[PCH_MODULE_NAME].mf.find(identifier):
            hits = [PCH_MODULE_NAME]
        return self._merge([(self._deserialize(n, identifier), n) for n in hits])

    def _resolve_textual(self, identifier: str, need: Need) -> Entity | _Marker:
        hits = self._direct_hits(identifier)
        if hits:
            return self._merge([(self._deserialize(n, identifier), n) for n in hits])
        header = self._rootmap.get(identifier)
        if header is not None:
            self._parse_header_cascade(header)
        return self._merge_resident(identifier, need)

    def _parse_header_cascade(self, relpath: str) -> None:
        if relpath in self._parsed_headers:
            return
        self._parsed_headers.add(relpath)
        path = root_file(self.paths.release_root, relpath, self.overlay)
        text = Path(path).read_text("utf-8")
        self._headers += 1
        self._charge_read(len(text.encode("utf-8")))
        ast = parse_header(text, relpath)
        self._merge_order[relpath] = 2**33 + self._headers
        for decl in ast.items:
            self._resident.setdefault(decl.name, []).append((decl, relpath))
        for include in ast.includes:
            self._parse_header_cascade(include)

    def _visible_postings(self, identifier: str) -> list[gmi_mod.Posting]:
        entry = self._index.entry(identifier)
        if entry is None:
            return []
        return [
            p
            for p in entry.postings
            if self._index.module_name(p.module_id) not in self._shadowed
        ]

    def _load_posted(self, posting: gmi_mod.Posting, identifier: str) -> list[tuple[Decl, str]]:
        """Load the module an index posting names and return its declaration
        of the identifier: none when a stale index (``allow_stale``) lists a
        module that was rebuilt without it."""
        name = self._index.module_name(posting.module_id)
        self._load_module(name, resolution=True)
        if self._loaded[name].mf.find(identifier) is None:
            return []
        return [(self._deserialize(name, identifier), name)]

    def _resolve_lexical(self, identifier: str, need: Need) -> Entity | _Marker:
        candidates: list[tuple[Decl, str]] = []
        for p in self._visible_postings(identifier):
            candidates += self._load_posted(p, identifier)
        candidates += [(self._deserialize(n, identifier), n) for n in self._direct_hits(identifier)]
        return self._merge(candidates)

    def _resolve_semantic(self, identifier: str, need: Need) -> Entity | _Marker:
        hits = self._direct_hits(identifier)
        defining_hits = [
            name
            for name in hits
            if self._loaded[name].mf.find(identifier).flags & DeclFlags.HAS_DEFINITION
        ]
        postings = self._visible_postings(identifier)
        def_posting = next(
            (p for p in postings if p.flags & PostingFlags.DEFINES), None
        )
        candidates = [(self._deserialize(n, identifier), n) for n in defining_hits]
        if def_posting is not None:
            posted = self._load_posted(def_posting, identifier)
            if not posted:
                postings.remove(def_posting)
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

    def stats(self) -> LoadStats:
        """Pure value snapshot; no side effects."""
        return LoadStats(
            modules_loaded=len(self._load_order),
            load_order=tuple(self._load_order),
            decls_deserialized=self._decls,
            bytes_read=self._bytes,
            headers_parsed=self._headers,
            sim_memory_bytes=self._mem,
            ticks=self._ticks,
            lookups=self._lookups,
            false_positive_loads=len(self._unredeemed),
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
    """Open a session, charging the strategy's startup costs."""
    return Session(map, paths, strategy, cost, index_path, allow_stale, overlay)
