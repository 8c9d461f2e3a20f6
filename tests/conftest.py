"""Shared corpus builders for the test suite.

`build_random_corpus` produces richer corpora than the benchmark generator:
all declaration kinds, forward-only names, byte-identical duplicates, names
declared as kinds of different merge rank in different modules, import chains
with occasional cycles.  `write_local_rebuilds` checks some of its modules
out into a local root, rebuilt, and `index_bytes` indexes a corpus directory.
Everything is seeded, so the suite is fully deterministic.  `single_edit` and
`assert_same_parse` serve the Hypothesis tests that hold each pattern parser
to its token `Cursor` parser.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

from modix.bench import write_corpus
from modix.declang import KEYWORDS, Decl, DeclKind, Need, StructField, TypeRef, parse_header
from modix.declang import render_decl
from modix.errors import ModixError, OdrViolation
from modix.gmi import IndexFlavor, build_index
from modix.loader import ResolutionOutcome, Session, Strategy
from modix.modfile import _KINDS, compile_module, read_module_summary, read_modules
from modix.modulemap import ModuleMap

BUILTINS = ("i32", "i64", "f64", "bool")


@dataclass
class BuiltCorpus:
    dir: Path
    map: ModuleMap
    known: list[str]  # identifiers present somewhere in the corpus
    unknown: list[str]  # identifiers guaranteed absent


def _random_type(rng: random.Random, type_names: list[str], allow_ref: bool = True) -> TypeRef:
    if allow_ref and type_names and rng.random() < 0.4:
        return TypeRef(rng.choice(type_names), rng.choice((0, 1, 1)))
    return TypeRef(rng.choice(BUILTINS), rng.choice((0, 0, 0, 1)))


def build_random_corpus(rng: random.Random, out_dir: Path) -> BuiltCorpus:
    n = rng.randint(1, 8)
    module_names = [f"L{m}" for m in range(n)]
    decls_per_module: dict[int, list[Decl]] = {m: [] for m in range(n)}
    type_names: list[str] = []  # struct/enum/alias names declared so far
    known: list[str] = []
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    for m in range(n):
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.5:
                name = fresh("T")
                fields = tuple(
                    StructField(f"f{i}", _random_type(rng, type_names))
                    for i in range(rng.randint(0, 3))
                )
                decl = Decl(name, DeclKind.STRUCT_DEF, fields=fields)
                type_names.append(name)
            elif roll < 0.65:
                name = fresh("E")
                decl = Decl(name, DeclKind.ENUM_DEF, enumerators=("a", "b"))
                type_names.append(name)
            elif roll < 0.8:
                name = fresh("A")
                decl = Decl(name, DeclKind.ALIAS, alias_target=_random_type(rng, type_names))
                type_names.append(name)
            else:
                name = fresh("F")
                params = tuple(
                    _random_type(rng, type_names) for _ in range(rng.randint(0, 2))
                )
                decl = Decl(
                    name, DeclKind.FUNC_DECL, params=params,
                    returns=_random_type(rng, type_names),
                )
            decls_per_module[m].append(decl)
            known.append(name)

    # Mixed-kind names: a name declared again in another module as a kind of
    # a different merge rank (struct or enum, alias, function), at most once
    # per rank, so ODR merging never conflicts and the top-ranked kind wins.
    if n > 1:
        for decls in list(decls_per_module.values()):
            for decl in list(decls):
                if rng.random() >= 0.25:
                    continue
                holders = [
                    t for t in range(n)
                    if any(d.name == decl.name and not d.is_forward for d in decls_per_module[t])
                ]
                taken = {
                    _KINDS[d.kind].entity for t in holders for d in decls_per_module[t]
                    if d.name == decl.name
                }
                kinds = [
                    kind for kind in (DeclKind.STRUCT_DEF, DeclKind.ALIAS, DeclKind.FUNC_DECL)
                    if _KINDS[kind].entity not in taken
                ]
                others = [t for t in range(n) if t not in holders]
                if not kinds or not others:
                    continue
                kind = rng.choice(kinds)
                ref = _random_type(rng, [t for t in type_names if t != decl.name])
                if kind is DeclKind.STRUCT_DEF:
                    extra = Decl(decl.name, kind, fields=(StructField("f0", ref),))
                elif kind is DeclKind.ALIAS:
                    extra = Decl(decl.name, kind, alias_target=ref)
                else:
                    extra = Decl(decl.name, kind, returns=ref)
                decls_per_module[rng.choice(others)].append(extra)

    # Forward declarations of defined struct names, scattered around.
    struct_names = [
        d.name for decls in decls_per_module.values() for d in decls
        if d.kind is DeclKind.STRUCT_DEF
    ]
    for name in struct_names:
        for m in rng.sample(range(n), rng.randint(0, min(2, n))):
            decls_per_module[m].append(Decl(name, DeclKind.STRUCT_FWD))

    # Forward-only ghosts: never defined anywhere.
    for _ in range(rng.randint(0, 2)):
        name = fresh("G")
        for m in rng.sample(range(n), rng.randint(1, min(3, n))):
            decls_per_module[m].append(Decl(name, DeclKind.STRUCT_FWD))
        known.append(name)

    # Byte-identical duplicates across two modules.
    if n > 1:
        for decls in rng.sample(
            [d for d in decls_per_module.values() if d], min(2, n)
        ):
            originals = [d for d in decls if d.kind is DeclKind.STRUCT_DEF]
            if originals:
                target = rng.randrange(n)
                source = rng.choice(originals)
                if source.name not in {d.name for d in decls_per_module[target] if not d.is_forward}:
                    decls_per_module[target].append(source)

    imports: dict[int, list[str]] = {}
    for m in range(n):
        candidates = [module_names[t] for t in range(n) if t != m]
        count = rng.randint(0, min(2, len(candidates)))
        imports[m] = sorted(rng.sample(candidates, count))

    modules = []
    for m in range(n):
        seen_nonfwd: set[str] = set()
        seen_fwd: set[str] = set()
        lines = [f'include "{imp}/lib.dh";' for imp in imports[m]]
        for decl in decls_per_module[m]:
            if decl.is_forward:
                if decl.name in seen_fwd:
                    continue
                seen_fwd.add(decl.name)
            else:
                if decl.name in seen_nonfwd:
                    continue
                seen_nonfwd.add(decl.name)
            lines.append(render_decl(decl))
        modules.append((module_names[m], {"lib.dh": "\n".join(lines) + "\n"}))

    module_map = write_corpus(out_dir, modules)
    unknown = [fresh("X") for _ in range(3)]
    return BuiltCorpus(Path(out_dir), module_map, sorted(set(known)), unknown)


def index_bytes(
    module_map: ModuleMap, corpus_dir: Path, flavor: IndexFlavor, excluded=()
) -> bytes:
    """The index of the corpus's module files, all but `excluded`, as
    `modix index --exclude` builds it."""
    indexed = [name for name in module_map.names if name not in excluded]
    return build_index(module_map, read_modules(corpus_dir, indexed), flavor)


def write_local_rebuilds(rng: random.Random, corpus: BuiltCorpus, local_dir: Path) -> None:
    """Write rebuilt copies of random modules of `corpus` into the local root
    `local_dir`: some byte-identical, some with names removed, some with
    changed struct definitions.  Each keeps its release imports."""
    local_dir.mkdir(parents=True)
    for name in rng.sample(corpus.map.names, rng.randint(1, len(corpus.map.names))):
        release = (corpus.dir / f"{name}.pcm").read_bytes()
        edit = rng.choice(("identical", "remove", "change"))
        if edit == "identical":
            (local_dir / f"{name}.pcm").write_bytes(release)
            continue
        header = parse_header((corpus.dir / name / "lib.dh").read_text("utf-8"), "lib.dh")
        if edit == "remove":
            items = [decl for decl in header.items if rng.random() < 0.5]
        else:
            extra = StructField("changed", TypeRef("i64", 0))
            items = [
                dataclasses.replace(decl, fields=decl.fields + (extra,))
                if decl.kind is DeclKind.STRUCT_DEF and rng.random() < 0.7 else decl
                for decl in header.items
            ]
        rebuilt = dataclasses.replace(header, items=tuple(items))
        imports = read_module_summary(release).imports
        (local_dir / f"{name}.pcm").write_bytes(compile_module(name, [rebuilt], imports))


def random_workload(rng: random.Random, corpus: BuiltCorpus, length: int) -> list[tuple[str, Need]]:
    pool = corpus.known + corpus.unknown
    return [
        (rng.choice(pool), rng.choice((Need.DEFINITION, Need.FORWARD_OK)))
        for _ in range(length)
    ]


def outcome_signature(session: Session, identifier: str, need: Need) -> tuple:
    """The comparison key of the strategy-equivalence oracle."""
    resolution = session.resolve(identifier, need)
    if resolution.outcome is ResolutionOutcome.NOT_FOUND:
        return ("not-found",)
    if need is Need.DEFINITION:
        return ("definition", resolution.entity.canonical_payload)
    return ("success",)


def run_equivalence_check(
    corpus: BuiltCorpus, workload: list[tuple[str, Need]], local_roots: tuple[str, ...] = ()
) -> None:
    """Assert all five strategies agree on the workload's outcome sequence,
    an ODR violation, with the pair of modules it names, being one more
    outcome."""
    from modix.bench import open_corpus_session

    def signature(session: Session, ident: str, need: Need) -> tuple:
        try:
            return outcome_signature(session, ident, need)
        except OdrViolation as exc:
            return ("odr-violation", exc.module_a, exc.module_b)

    sequences = {}
    for strategy in Strategy:
        session = open_corpus_session(corpus.dir, strategy, local_roots=local_roots)
        sequences[strategy] = [signature(session, ident, need) for ident, need in workload]
    oracle = sequences[Strategy.PRELOAD_ALL]
    for strategy, sequence in sequences.items():
        assert sequence == oracle, (
            f"{strategy.value} diverged from preload-all: "
            f"{_first_divergence(oracle, sequence, workload)}"
        )


def _first_divergence(oracle, sequence, workload):
    for i, (a, b) in enumerate(zip(oracle, sequence)):
        if a != b:
            return f"statement {i} {workload[i]}: oracle={a} got={b}"
    return "length mismatch"


@pytest.fixture(scope="session")
def corpus12(tmp_path_factory):
    """The 12-module seed-7 corpus, shared and read-only: a test that damages
    files builds its own."""
    from modix.bench import CorpusSpec, generate_corpus

    corpus_dir = tmp_path_factory.mktemp("corpus12")
    spec = CorpusSpec(
        n_modules=12, defs_per_module=3, fwd_fanout=3,
        dup_fraction=0.5, import_density=1.0, seed=7,
    )
    generate_corpus(spec, corpus_dir)
    return corpus_dir


@pytest.fixture
def gpad_corpus(tmp_path):
    """The 1-definition + 5-forward-declarations shape."""
    from modix.bench import CorpusSpec, generate_corpus

    corpus_dir = tmp_path / "gpad"
    spec = CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7)
    module_map = generate_corpus(spec, corpus_dir)
    return corpus_dir, module_map


# --- single edits of parser inputs, for the pattern/Cursor differential tests ---

# Characters the scanner treats differently from the patterns' ASCII classes
# (no-break space, vertical tab, a superscript digit, a non-ASCII letter),
# comments, strings, tabs, every punctuator and every keyword.
EDIT_PIECES = (
    "\xa0", "\x0b", "²", "Ä", "//", "\t", " ", "\n", '"', "<", ">", *"{}();:,=.",
    "a", "_", "7", "->", *sorted(KEYWORDS), "module", "header",
)


@st.composite
def single_edit(draw, texts):
    """A text from `texts` with one piece inserted, deleted or replaced."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(EDIT_PIECES))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    if edit == "insert" or at == len(text):
        return text[:at] + piece + text[at:]
    return text[:at] + ("" if edit == "delete" else piece) + text[at + 1:]


def assert_same_parse(parse, fast, tokens, text, *args):
    """`fast` declines or agrees with the Cursor parser `tokens`, and the public
    `parse` gives the Cursor parser's value or raises its error, word for word."""
    accepted = fast(text, *args)
    try:
        expected = tokens(text, *args)
    except ModixError as exc:
        assert accepted is None, f"pattern accepted what the Cursor rejects: {exc}"
        with pytest.raises(ModixError) as excinfo:
            parse(text, *args)
        assert (type(excinfo.value), str(excinfo.value)) == (type(exc), str(exc))
        return
    assert accepted is None or accepted == expected
    assert parse(text, *args) == expected
