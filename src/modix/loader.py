"""Name-lookup sessions over a compiled module corpus.

A session extends name lookup through one of five strategies:

* ``preload-all``  -- read every module file (summaries and all blobs) up
  front into the resident name table, decoding each module's blobs in one
  pass (``modfile.deserialize_module``) through one per-open memo, which
  decodes each repeated blob head and payload once; lookups hit it only.
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
payload bytes, sliced from the blob, or for a header's declaration encoded at
its name's first merge.  textual parses each struct body once per session
(``declang.parse_header``'s memo), so repeated bodies share their fields.
A lookup finds a candidate's row once, in its loaded module's ``rows``, and
hands that row to ``modfile.deserialize_decl``; the index strategies read an
identifier's postings through ``GlobalIndex.entry``.  An index open checks
only the stored hash in each indexed module file's 16-byte head, uncharged
(``gmi.stale_heads``): a load rehashes the whole file, and ``modix validate``
hashes each file once, in full.

Local checkouts replace their release modules under one rule: a name's
candidates are the local declarations plus those of the release modules not
checked out.  A session probes the local roots for each module name at most
once, and a session without local roots probes nothing.  pch and textual, whose merged cache and rootmap cannot be so
filtered, resolve a name either copy of a checkout declares as lexical-gmi
does, charging the lexical index, those release summaries and posted loads;
the modules the index excludes load at the first such lookup.

Only some sessions read the release's module map (``Session.reads_map``):
preload-all loads every map module, and local roots are probed by map name.
The index strategies merge in the order their index records, pch merges one
candidate per name, its ``__pch__`` row, and textual ranks headers in parse
order, so without local roots a missing or broken map cannot fail them.

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

Sessions are single-threaded by contract; distinct sessions over the same
immutable corpus may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence
from . import gmi as gmi_mod
from . import modfile
from ._wire import byte_order
from .declang import FieldMemo, HeaderAST, Need, parse_header
from .errors import (
    IndexStale,
    MissingPch,
    MissingRootmap,
    ModuleNotFound,
    UnreadableFile,
    WrongFlavor,
)
from .gmi import GlobalIndex, IndexFlavor, PostingFlags
from .gmi import validate_index  # noqa: F401 -- kept for perfbench/spans.py to wrap
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
        return self.outcome is not _UNRESOLVED


class _Marker(Enum):
    ABSENT = "absent"
    FORWARD_ONLY = "forward-only"


_NOT_FOUND = Resolution(ResolutionOutcome.NOT_FOUND)
_IMPLICIT_FORWARD = Resolution(ResolutionOutcome.IMPLICIT_FORWARD)
# Enum members read per lookup, as plain names (see modfile's kind names).
_ABSENT, _FORWARD_ONLY = _Marker.ABSENT, _Marker.FORWARD_ONLY
_DEFINITION, _FORWARD_OK = Need.DEFINITION, Need.FORWARD_OK
_RESOLVED, _UNRESOLVED = ResolutionOutcome.RESOLVED, ResolutionOutcome.NOT_FOUND
_FORWARD = modfile.EntityKind.FORWARD


class Session:
    """One interpreter session: fixed strategy, cumulative stats.  Opening
    one charges the strategy's startup costs.  An index strategy reads its
    flavor's index file in the release root, or `index_path` when given; the
    other strategies ignore `index_path`."""

    def __init__(
        self,
        map: ModuleMap,
        paths: SearchPaths,
        strategy: Strategy,
        cost: CostModel | None = None,
        index_path: str | Path | None = None,
        allow_stale: bool = False,
        overlay: Overlay = Overlay(),
    ):
        self.map = map
        self.paths = paths
        self.strategy = strategy
        self.cost = cost if cost is not None else CostModel()
        self.overlay = overlay

        self._loaded: dict[str, ModuleFile] = {}  # in load order
        self._loading: set[str] = set()
        self._direct: list[str] = []
        self._shadowed: set[str] = set()
        self._local: dict[str, str | None] = {}  # each probed name's local checkout
        self._touched: set[str] = set()
        self._index: GlobalIndex | None = None
        self._rootmap: dict[str, str] | None = None
        self._parsed_headers: set[str] = set()
        self._fields = FieldMemo()  # textual's struct bodies, parsed once per session
        # Each name's merge candidates.  textual commits them with no payload
        # (None); `_resolve_textual` encodes them at the name's one merge and
        # then drops them.
        self._resident: dict[str, list[Candidate]] = {}
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
        resident, memo = self._resident, modfile.DecodeMemo()
        for name, mf in self._loaded.items():
            rows = modfile.deserialize_module(mf, memo)
            self._decls += len(rows)
            self._charge_reads(mf.blob_lens)
            for ident, decl, payload in rows:
                resident.setdefault(ident, []).append((decl, name, payload))

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
        self._merge_order = self._index.order
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
        if not allow_stale and (stale := gmi_mod.stale_heads(index, self.paths.release_root, self.overlay)):
            raise IndexStale(stale)
        self._index = index
        self._charge_read(size)

    def _load_direct(self, allow_stale: bool) -> None:
        """Local checkouts shadow the release: their summaries come up eagerly
        and index postings for them are ignored.  pch and textual also read the
        lexical index and the release copies' summaries (see the module doc)."""
        if not self.paths.local_roots:
            return
        for name in self.map.names:
            if self._local_copy(name) is not None:
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
                        ident for ident in self._index.rows
                        if any(p.module == name for p in self._index.entry(ident))
                    )
                else:
                    self._charge_read(release_copy.summary_bytes)
                    self._touched.update(release_copy.rows)
                self._touched.update(self._loaded[name].rows)

    def _load_excluded(self) -> None:
        """Modules excluded from the index are consulted directly as well; one
        whose import is missing raises here again at the next call."""
        for name in byte_order(self._index.excluded):
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

    def _charge_reads(self, sizes: Sequence[int]) -> None:
        """`_charge_read` of each size, in one step."""
        self._bytes += sum(sizes)
        if per_tick := self.cost.bytes_per_tick:
            self._read_ticks += sum(-(-nbytes // per_tick) for nbytes in sizes)

    # -- module loading --

    def _load_module(self, name: str, resolution: bool) -> None:
        """Load one module (and its transitive imports first); idempotent."""
        if name in self._loaded or name in self._loading:
            return
        self._loading.add(name)
        try:
            path = self._local_copy(name) or root_file(
                self.paths.release_root, name + FILE_EXTENSION, self.overlay
            )
            mf = modfile.read_module(path, name)
            for imp in mf.imports:
                self._load_module(imp, resolution)
            self._charge_read(mf.summary_bytes)
            self._loaded[name] = mf
            if resolution:
                self._unredeemed.add(name)
        finally:
            self._loading.discard(name)

    def _local_copy(self, name: str) -> str | None:
        """`find_local_module` of `name`, probed at most once per session."""
        if not self.paths.local_roots:
            return None
        if name not in self._local:
            self._local[name] = find_local_module(self.paths, name, self.overlay)
        return self._local[name]

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

    def _deserialize(self, module_name: str, row: int) -> Candidate:
        """Decode the declaration of a row already found in a loaded module."""
        mf = self._loaded[module_name]
        decl, payload = modfile.deserialize_decl(mf, row)
        self._decls += 1
        self._charge_read(mf.blob_lens[row])
        return decl, module_name, payload

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
        if cached is _ABSENT:
            return _NOT_FOUND
        if cached is _FORWARD_ONLY:
            return _IMPLICIT_FORWARD if need is _FORWARD_OK else _NOT_FOUND
        entity = cached
        if need is _DEFINITION and entity.kind is _FORWARD:
            return _NOT_FOUND
        self._unredeemed.discard(entity.defining_module)
        return Resolution(_RESOLVED, entity)

    def _direct_hits(self, identifier: str) -> list[tuple[str, int]]:
        """Each direct module holding the identifier, with its row."""
        found = ((name, self._loaded[name].rows.get(identifier)) for name in self._direct)
        return [(name, row) for name, row in found if row is not None]

    def _merge(self, candidates: list[Candidate]) -> Entity | _Marker:
        return merge_entities(candidates, self._merge_order) if candidates else _ABSENT

    def _merge_resident(self, identifier: str) -> Entity | _Marker:
        return self._merge(self._resident.get(identifier, []))

    def _resolve_pch(self, identifier: str) -> Entity | _Marker:
        if identifier in self._touched:
            self._load_excluded()
            return self._resolve_lexical(identifier)
        row = self._loaded[PCH_MODULE_NAME].rows.get(identifier)
        return self._merge([] if row is None else [self._deserialize(PCH_MODULE_NAME, row)])

    def _resolve_textual(self, identifier: str) -> Entity | _Marker:
        if identifier in self._touched:
            self._load_excluded()
            return self._resolve_lexical(identifier)
        header = self._rootmap.get(identifier)
        if header is not None:
            self._parse_header_cascade(header)
        # A name merges once, as resolutions are cached: encode its payloads
        # now, and drop its candidates once the merge stands.
        merged = self._merge([
            (decl, rel, modfile.encode_payload(decl))
            for decl, rel, _ in self._resident.get(identifier, ())
        ])
        self._resident.pop(identifier, None)
        return merged

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
            if rel.startswith("/") or ".." in rel.split("/"):
                raise UnreadableFile(f"cannot read {rel}: outside the release root")
            text = read_text(root_file(self.paths.release_root, rel, self.overlay))
            ast = parse_header(text, rel, self._fields)
            parsed[rel] = (text, ast)
            for include in ast.includes:
                visit(include)

        visit(relpath)
        for rel, (text, ast) in parsed.items():
            self._parsed_headers.add(rel)
            self._charge_read(len(text.encode("utf-8")))
            self._merge_order[rel] = len(self._merge_order)
            for decl in ast.items:
                self._resident.setdefault(decl.name, []).append((decl, rel, None))

    def _visible(self, postings: tuple[gmi_mod.Posting, ...]) -> list[gmi_mod.Posting]:
        return [p for p in postings if p.module not in self._shadowed]

    def _load_posted(self, name: str, identifier: str) -> list[Candidate]:
        """Load the module an index posting names and return its declaration
        of the identifier: none when a stale index (``allow_stale``) lists a
        module that was rebuilt without it or deleted."""
        if not self._load_if_present(name, resolution=True):
            return []
        row = self._loaded[name].rows.get(identifier)
        return [] if row is None else [self._deserialize(name, row)]

    def _resolve_lexical(self, identifier: str) -> Entity | _Marker:
        candidates: list[Candidate] = []
        for p in self._visible(self._index.entry(identifier)):
            candidates += self._load_posted(p.module, identifier)
        for name, row in self._direct_hits(identifier):
            candidates.append(self._deserialize(name, row))
        return self._merge(candidates)

    def _resolve_semantic(self, identifier: str) -> Entity | _Marker:
        hits = self._direct_hits(identifier)
        candidates = [
            self._deserialize(name, row)
            for name, row in hits
            if self._loaded[name].flags[row] & DeclFlags.HAS_DEFINITION
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
        return _FORWARD_ONLY if hits or postings else _ABSENT

    # Each strategy's startup and uncached resolve, side by side.
    _STRATEGIES = {
        Strategy.PRELOAD_ALL: (_start_preload, _merge_resident),
        Strategy.PCH: (_start_pch, _resolve_pch),
        Strategy.TEXTUAL: (_start_textual, _resolve_textual),
        Strategy.LEXICAL_GMI: (_start_index, _resolve_lexical),
        Strategy.SEMANTIC_GMI: (_start_index, _resolve_semantic),
    }

    @staticmethod
    def reads_map(strategy: Strategy, local_roots: Sequence[str]) -> bool:
        """Whether a session needs its module map (see the module doc)."""
        return bool(local_roots) or strategy is Strategy.PRELOAD_ALL

    # -- stats --

    def stats(self) -> LoadStats:
        """Pure value snapshot of the costs since the session began; no side
        effects."""
        loaded = len(self._loaded)
        return LoadStats(
            modules_loaded=loaded,
            load_order=tuple(self._loaded),
            decls_deserialized=self._decls,
            bytes_read=self._bytes,
            headers_parsed=len(self._parsed_headers),
            sim_memory_bytes=self._bytes + loaded * self.cost.per_module_overhead_bytes,
            ticks=self._read_ticks + loaded * self.cost.per_module_overhead_ticks,
            lookups=self._lookups,
            false_positive_loads=len(self._unredeemed),
        )


open_session = Session  # the name `bench` opens sessions by, which perfbench/spans.py wraps
