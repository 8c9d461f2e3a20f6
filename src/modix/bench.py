"""Synthetic corpus generation and strategy comparison.

A corpus is a self-contained release directory: header sources, per-library
and concatenated module maps, compiled `.pcm` files, a merged `__pch__.pcm`,
both index flavors (`modules.gmi` semantic, `modules.lexical.gmi` lexical),
and a `modules.rootmap`.  Generation is deterministic for a fixed spec.
Generators only describe header sources; `write_corpus` writes them and builds
the release through `compile_tree`, the one compile path, which `modix compile`
also runs.

The harness runs one fresh session per strategy over an identical workload and
reports startup and workload costs separately.  Ticks, not wall-clock, are the
runtime metric, so reports reproduce bit-for-bit across machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

from . import gmi as gmi_mod
from . import modfile
from .declang import Decl, DeclKind, FieldMemo, StructField, TypeRef, parse_header, render_decl
from .errors import EmptyReport
from .gmi import IndexFlavor
from .interp import run_script
from .loader import ROOTMAP_FILE_NAME, CostModel, LoadStats, Session, Strategy, open_session
from .modulemap import FINAL_MAP_NAME, ModuleMap, Overlay, SearchPaths, load_modulemap, read_text

CSV_COLUMNS = (
    "scenario",
    "strategy",
    "startup_modules",
    "startup_bytes",
    "startup_mem",
    "startup_ticks",
    "wl_modules",
    "wl_decls",
    "wl_bytes",
    "wl_mem",
    "wl_ticks",
    "false_positives",
)


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a synthetic release.

    `fwd_fanout` forward-declares every definition in that many other modules
    (round-robin); `dup_fraction` byte-duplicates that fraction of definitions
    into a second module; `import_density` is the expected imports per module.
    """

    n_modules: int
    defs_per_module: int = 1
    fwd_fanout: int = 0
    dup_fraction: float = 0.0
    import_density: float = 0.0
    seed: int = 0
    framework_modules: int = 0

    def __post_init__(self) -> None:
        if self.n_modules < 1:
            raise ValueError("n_modules must be >= 1")
        if self.defs_per_module < 1:
            raise ValueError("defs_per_module must be >= 1")
        if not 0 <= self.fwd_fanout < self.n_modules:
            raise ValueError("fwd_fanout must satisfy 0 <= fanout < n_modules")
        if not 0.0 <= self.dup_fraction <= 1.0:
            raise ValueError("dup_fraction must lie in [0, 1]")
        if self.import_density < 0:
            raise ValueError("import_density must be >= 0")
        if not 0 <= self.framework_modules <= self.n_modules:
            raise ValueError("framework_modules must lie in [0, n_modules]")


def load_spec(text: str) -> CorpusSpec:
    """Parse a `.spec` scenario file: `key = value` lines, `#` comments."""
    known = {f.name: f.type for f in dataclass_fields(CorpusSpec)}
    values: dict[str, int | float] = {}
    lines: dict[str, int] = {}  # the line that set each field
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        if key not in known:
            raise ValueError(f"line {lineno}: unknown spec field '{key}'")
        floating = key in ("dup_fraction", "import_density")
        kind, convert = ("a number", float) if floating else ("an integer", int)
        try:
            values[key] = convert(value)
        except ValueError:
            raise ValueError(f"line {lineno}: '{key}' must be {kind}, got '{value}'") from None
        lines[key] = lineno
    if "n_modules" not in values:
        raise ValueError("missing required field 'n_modules'")
    try:
        return CorpusSpec(**values)
    except ValueError as exc:  # a range error, which starts with the field it names
        field = str(exc).partition(" ")[0]
        raise ValueError(f"line {lines[field]}: {exc}" if field in lines else str(exc)) from None


def _module_name(spec: CorpusSpec, m: int) -> str:
    if spec.framework_modules:
        if m < spec.framework_modules:
            return f"Fwk{m:03d}"
        return f"Ext{m - spec.framework_modules:03d}"
    return f"M{m}"


def _random_def(rng: random.Random, name: str, earlier: list[str]) -> Decl:
    field_count = rng.randint(1, 3)
    fields = []
    for i in range(field_count):
        if earlier and rng.random() < 0.25:
            target = rng.choice(earlier)
            indirection = rng.choice((0, 1))
            fields.append(StructField(f"f{i}", TypeRef(target, indirection)))
        else:
            fields.append(StructField(f"f{i}", TypeRef(rng.choice(("i32", "i64", "f64", "bool")))))
    return Decl(name, DeclKind.STRUCT_DEF, fields=tuple(fields))


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> ModuleMap:
    """Generate and fully build a corpus under `out_dir`.

    Identifiers are named `S<m>_<k>`; forward declarations go round-robin to
    the modules after the defining one; duplicated definitions are
    byte-identical so the one-definition rule merges them.
    """
    rng = random.Random(spec.seed)
    n = spec.n_modules
    names = [_module_name(spec, m) for m in range(n)]

    defs: list[tuple[int, Decl]] = []  # (module, decl), generation order
    own: list[list[Decl]] = [[] for _ in range(n)]  # each module's defs, then its copies
    earlier: list[str] = []
    for m in range(n):
        for k in range(spec.defs_per_module):
            decl = _random_def(rng, f"S{m}_{k}", earlier)
            defs.append((m, decl))
            own[m].append(decl)
            earlier.append(decl.name)

    if n > 1:
        dup_count = int(spec.dup_fraction * len(defs) + 0.5)
        for index in sorted(rng.sample(range(len(defs)), dup_count)):
            m, decl = defs[index]
            target = rng.randrange(n - 1)
            if target >= m:
                target += 1
            own[target].append(decl)

    forwards: dict[int, list[str]] = {m: [] for m in range(n)}
    for m, decl in defs:
        for j in range(spec.fwd_fanout):
            forwards[(m + 1 + j) % n].append(decl.name)

    imports: dict[int, list[str]] = {}
    for m in range(n):
        base = int(spec.import_density)
        count = base + (1 if rng.random() < spec.import_density - base else 0)
        others = names[:m] + names[m + 1:]
        imports[m] = sorted(rng.sample(others, min(count, len(others))))

    modules = []
    for m in range(n):
        lines = [f'include "{imp}/types.dh";' for imp in imports[m]]
        lines.extend(render_decl(decl) for decl in own[m])
        headers = {"types.dh": "\n".join(lines) + "\n"}
        if forwards[m]:
            headers["fwd.dh"] = "".join(f"struct {name};\n" for name in forwards[m])
        modules.append((names[m], headers))
    return write_corpus(out_dir, modules)


def generate_replicated_corpus(
    n_modules: int, defs_per_module: int, out_dir: str | Path
) -> ModuleMap:
    """A release of `n_modules` byte-identical libraries.

    Every module defines the same identifiers with identical payloads (legal
    duplicates), and module names are fixed-width, so the per-module byte
    footprint is a constant: total preload cost is exactly affine in the
    module count.
    """
    body = "".join(
        f"struct A{k} {{ x: i32; y: f64; }};\n" for k in range(defs_per_module)
    )
    modules = [
        (f"R{m:04d}", {"types.dh": body}) for m in range(n_modules)
    ]
    return write_corpus(out_dir, modules)


def write_corpus(
    out_dir: str | Path, modules: Sequence[tuple[str, dict[str, str]]]
) -> ModuleMap:
    """Write the sources of (module name, {header name: text}) descriptions
    (headers, per-library maps and `module.modulemap`), then build the release
    from them: module files and rootmap (`compile_tree`), then the PCH and both
    indexes from its one fold.  Imports come from includes, as in `compile_tree`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    map_texts: list[str] = []
    for name, headers in modules:
        module_dir = out / name
        module_dir.mkdir(exist_ok=True)
        for header_name in sorted(headers):
            (module_dir / header_name).write_text(headers[header_name], "utf-8")
        map_text = f"module {name} {{\n" + "".join(
            f'    header "{name}/{h}"\n' for h in sorted(headers)
        ) + "}\n"
        (out / f"{name}.modulemap").write_text(map_text, "utf-8")
        map_texts.append(map_text)
    (out / FINAL_MAP_NAME).write_text("".join(map_texts), "utf-8")

    module_map, release = compile_tree(out / FINAL_MAP_NAME, out)
    (out / modfile.PCH_FILE_NAME).write_bytes(modfile.build_pch(release))
    for flavor in (IndexFlavor.SEMANTIC, IndexFlavor.LEXICAL):
        index = gmi_mod.build_index(module_map, release, flavor)
        (out / gmi_mod.index_file_name(flavor)).write_bytes(index)
    return module_map


def compile_tree(
    map_path: str | Path, out_dir: str | Path
) -> tuple[ModuleMap, modfile.Release]:
    """Compile every module of a final module map into `out_dir`.

    Headers are read relative to the map's directory.  A module imports each
    other module that owns a header it includes, in include order.  Origins
    are stored relative to the module's own directory, so the module files
    stay relocatable.  Writes `<name>.pcm` per module, a copy of the map and
    the rootmap, which an ODR conflict between modules refuses; returns the
    map and the release its summaries fold to (`modfile.fold_rows`).  A
    previous build's rootmap and `__pch__` are removed first, so a tree that
    raises here leaves neither for textual or pch to answer from.
    """
    out = Path(out_dir)
    for stale in (ROOTMAP_FILE_NAME, modfile.PCH_FILE_NAME):
        (out / stale).unlink(missing_ok=True)
    map_path = Path(map_path)
    root = map_path.parent
    map_text = read_text(map_path)  # parsed here, then copied to the output
    module_map = load_modulemap(map_path, map_text)
    owners = module_map.header_owners()
    out.mkdir(parents=True, exist_ok=True)
    compiled = []  # each module's file bytes, read back one at a time by the fold
    memo = FieldMemo()  # struct bodies parsed once per build
    for d in module_map.defs:
        asts = []
        imports: list[str] = []
        for header in d.headers:
            origin = header[len(d.name) + 1:] if header.startswith(d.name + "/") else header
            ast = parse_header(read_text(root / header), origin, memo)
            asts.append(ast)
            for include in ast.includes:
                owner = owners.get(include)
                if owner is not None and owner != d.name and owner not in imports:
                    imports.append(owner)
        data = modfile.compile_module(d.name, asts, imports)
        (out / f"{d.name}{modfile.FILE_EXTENSION}").write_bytes(data)
        compiled.append(data)
    (out / FINAL_MAP_NAME).write_text(map_text, "utf-8")
    # The fold reads each summary back from its bytes, one at a time.  Holding
    # all 1000 summaries of the 1k tree raised the compile step's peak RSS
    # from 27.2 to 29.2 MiB, and folding each module as it compiles must hold
    # an ODR conflict until every module is written, so the read-back stays.
    release = modfile.fold_rows(map(modfile.read_module_summary, compiled))
    (out / ROOTMAP_FILE_NAME).write_text(build_rootmap(module_map, release), "utf-8")
    return module_map, release


def build_rootmap(module_map: ModuleMap, release: modfile.Release) -> str:
    """One `IDENT HEADER` line per winner of a folded release, naming the map
    path its header was compiled from: `<module>/<origin>` where that module
    lists it, else the origin its blob's head names."""
    owners = module_map.header_owners()
    lines = []
    for name, (module, _, blob) in sorted(release.winners.items()):
        origin = modfile.split_blob(blob)[0]
        path = f"{module}/{origin}"
        lines.append(f"{name} {path if owners.get(path) == module else origin}\n")
    return "".join(lines)


# --- harness ---


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    strategy: str
    startup: LoadStats
    workload: LoadStats
    total_ticks: int
    sim_memory_bytes: int


def open_corpus_session(
    corpus_dir: str | Path,
    strategy: Strategy,
    cost: CostModel | None = None,
    local_roots: Sequence[str] = (),
    allow_stale: bool = False,
    index_path: str | Path | None = None,
    overlay: Overlay = Overlay(),
) -> Session:
    """Open a session over a corpus directory, the release root, with
    `local_roots` ahead of it in precedence order (see `Session` for the
    rest).  `modix run` opens through here.  It parses `module.modulemap` only
    when `Session.reads_map`: pch, textual and index sessions without local
    roots read only their artifact (and an index's module heads), so a
    missing or broken map does not fail their opens."""
    corpus_dir = Path(corpus_dir)
    paths = SearchPaths(tuple(str(r) for r in local_roots), str(corpus_dir))
    module_map = ModuleMap(())
    if Session.reads_map(strategy, paths.local_roots):
        module_map = load_modulemap(corpus_dir / FINAL_MAP_NAME)
    return open_session(module_map, paths, strategy, cost, index_path, allow_stale, overlay)


def run_benchmark(
    corpus_dir: str | Path,
    workload: str,
    strategies: Sequence[Strategy],
    cost: CostModel | None = None,
    scenario: str | None = None,
) -> list[BenchRow]:
    """One fresh session per strategy, identical workload, separate startup
    and workload accounting."""
    corpus_dir = Path(corpus_dir)
    name = scenario if scenario is not None else corpus_dir.name
    rows = []
    for strategy in strategies:
        session = open_corpus_session(corpus_dir, strategy, cost)
        startup = session.stats()
        run_script(session, workload)
        final = session.stats()
        rows.append(
            BenchRow(
                scenario=name,
                strategy=strategy.value,
                startup=startup,
                workload=final - startup,
                total_ticks=final.ticks,
                sim_memory_bytes=final.sim_memory_bytes,
            )
        )
    return rows


def _row_values(row: BenchRow) -> tuple:
    return (
        row.scenario,
        row.strategy,
        row.startup.modules_loaded,
        row.startup.bytes_read,
        row.startup.sim_memory_bytes,
        row.startup.ticks,
        row.workload.modules_loaded,
        row.workload.decls_deserialized,
        row.workload.bytes_read,
        row.workload.sim_memory_bytes,
        row.workload.ticks,
        row.startup.false_positive_loads + row.workload.false_positive_loads,
    )


def emit_report(rows: Sequence[BenchRow], format: str = "csv") -> str:
    """Render rows sorted by (scenario, strategy) as csv or a markdown table."""
    if not rows:
        raise EmptyReport("no benchmark rows to report")
    if format not in ("csv", "markdown"):
        raise ValueError(f"unknown report format '{format}'")
    ordered = sorted(rows, key=lambda r: (r.scenario, r.strategy))
    table = [[str(v) for v in _row_values(row)] for row in ordered]
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(values) for values in table)
        return "\n".join(lines) + "\n"
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |"]
    lines.append("|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|")
    lines.extend("| " + " | ".join(values) + " |" for values in table)
    return "\n".join(lines) + "\n"
