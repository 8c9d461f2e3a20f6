"""Shared corpus builders for the test suite.

`build_random_corpus` produces richer corpora than the benchmark generator:
all declaration kinds, forward-only names, byte-identical duplicates, import
chains with occasional cycles.  Everything is seeded, so the suite is fully
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from modix.bench import write_corpus
from modix.declang import Decl, DeclKind, Need, StructField, TypeRef, render_decl
from modix.loader import ResolutionOutcome, Session, Strategy
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


def run_equivalence_check(corpus: BuiltCorpus, workload: list[tuple[str, Need]]) -> None:
    """Assert all five strategies agree on the workload's outcome sequence."""
    from modix.bench import open_corpus_session

    sequences = {}
    for strategy in Strategy:
        session = open_corpus_session(corpus.dir, strategy)
        sequences[strategy] = [
            outcome_signature(session, ident, need) for ident, need in workload
        ]
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


@pytest.fixture
def gpad_corpus(tmp_path):
    """The 1-definition + 5-forward-declarations shape."""
    from modix.bench import CorpusSpec, generate_corpus

    corpus_dir = tmp_path / "gpad"
    spec = CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7)
    module_map = generate_corpus(spec, corpus_dir)
    return corpus_dir, module_map
