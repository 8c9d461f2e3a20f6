"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import pytest

from conftest import build_random_corpus, encode_blob, index_bytes, random_workload, run_equivalence_check
from modix.bench import (
    CorpusSpec,
    generate_corpus,
    generate_replicated_corpus,
    load_spec,
    open_corpus_session,
    run_benchmark,
)
from modix.declang import Decl, DeclKind, Need, StructField, TypeRef, parse_header
from modix.errors import OdrViolation
from modix.gmi import (
    INDEX_FILE_NAME,
    LEXICAL_INDEX_FILE_NAME,
    IndexFlavor,
    PostingFlags,
    Staleness,
    load_index,
    validate_index,
)
from modix.loader import ResolutionOutcome, Strategy, open_session
from modix.modfile import (
    EntityKind,
    build_pch,
    compile_module,
    deserialize_decl,
    encode_payload,
    fold_rows,
    merge_entities,
    read_module_summary,
)
from modix.modulemap import SearchPaths

from test_gmi import assert_index_consistent


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def cmssw_corpus(tmp_path_factory):
    """The bundled 319-library scenario, generated once for criteria 6 and 7."""
    spec_text = resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
    spec = load_spec(spec_text)
    corpus_dir = tmp_path_factory.mktemp("cmssw319")
    started = time.perf_counter()
    module_map = generate_corpus(spec, corpus_dir)
    return corpus_dir, module_map, spec, time.perf_counter() - started


def test_criterion_1_gpad_scenario(tmp_path):
    with criterion(1, "gpad-scenario", budget_seconds=1.0):
        corpus_dir = tmp_path / "gpad"
        generate_corpus(
            CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7), corpus_dir
        )
        rows = {
            r.strategy: r
            for r in run_benchmark(corpus_dir, "new S0_0;\n", list(Strategy))
        }
        assert rows["preload-all"].startup.modules_loaded == 6
        assert rows["pch"].startup.modules_loaded == 1
        assert rows["lexical-gmi"].workload.modules_loaded == 6
        assert rows["semantic-gmi"].workload.modules_loaded == 1
        assert rows["semantic-gmi"].workload.false_positive_loads == 0
        assert rows["lexical-gmi"].workload.false_positive_loads == 5


def test_criterion_2_strategy_equivalence(tmp_path):
    with criterion(2, "strategy-equivalence", budget_seconds=60.0):
        rng = random.Random(20260810)
        for case in range(200):
            corpus = build_random_corpus(rng, tmp_path / f"case{case}")
            workload = random_workload(rng, corpus, 50)
            run_equivalence_check(corpus, workload)


def test_criterion_3_linear_overhead_law(tmp_path):
    with criterion(3, "linear-overhead-law", budget_seconds=30.0):
        sizes = (10, 100, 319)
        memory: dict[int, int] = {}
        for n in sizes:
            corpus_dir = tmp_path / f"n{n}"
            generate_replicated_corpus(n, 2, corpus_dir)
            preload = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL).stats()
            assert preload.modules_loaded == n
            memory[n] = preload.sim_memory_bytes
            assert open_corpus_session(corpus_dir, Strategy.PCH).stats().modules_loaded == 1
            for strategy in (Strategy.SEMANTIC_GMI, Strategy.LEXICAL_GMI):
                assert open_corpus_session(corpus_dir, strategy).stats().modules_loaded == 0
        # Exact affine fit: the three points are collinear with zero residual.
        n0, n1, n2 = sizes
        assert (memory[n2] - memory[n0]) * (n1 - n0) == (memory[n1] - memory[n0]) * (n2 - n0)
        slope = (memory[n1] - memory[n0]) // (n1 - n0)
        intercept = memory[n0] - slope * n0
        for n in sizes:
            assert memory[n] == intercept + slope * n
        assert intercept == 0  # per-module cost only, nothing fixed


def _random_decl(rng: random.Random, name: str) -> Decl:
    kind = rng.choice(list(DeclKind))
    origin = (f"h{rng.randrange(4)}.dh", rng.randint(1, 99))
    if kind is DeclKind.STRUCT_DEF:
        fields = tuple(
            StructField(
                f"f{i}",
                TypeRef(rng.choice(("i32", "i64", "f64", "bool", "Other")), rng.randint(0, 2)),
            )
            for i in range(rng.randint(0, 4))
        )
        return Decl(name, kind, fields=fields, origin=origin)
    if kind is DeclKind.STRUCT_FWD:
        return Decl(name, kind, origin=origin)
    if kind is DeclKind.ENUM_DEF:
        enumerators = tuple(f"e{i}" for i in range(rng.randint(1, 4)))
        return Decl(name, kind, enumerators=enumerators, origin=origin)
    if kind is DeclKind.ALIAS:
        return Decl(name, kind, alias_target=TypeRef("i64", rng.randint(0, 2)), origin=origin)
    params = tuple(TypeRef("f64", rng.randint(0, 1)) for _ in range(rng.randint(0, 3)))
    return Decl(name, kind, params=params, returns=TypeRef("bool"), origin=origin)


def test_criterion_4_round_trip_and_format(tmp_path):
    with criterion(4, "round-trip-and-format"):
        rng = random.Random(4444)
        for case in range(1000):
            names = [f"N{case}_{i}" for i in range(rng.randint(1, 5))]
            decls = [_random_decl(rng, name) for name in names]
            header_items: dict[str, Decl] = {}
            for decl in decls:
                if decl.name not in header_items or header_items[decl.name].is_forward:
                    header_items[decl.name] = decl
            from modix.declang import HeaderAST

            header = HeaderAST("h.dh", tuple(header_items.values()), ())
            imports = tuple(f"Dep{i}" for i in range(rng.randint(0, 3)))
            data = compile_module(f"Mod{case}", [header], imports)
            assert compile_module(f"Mod{case}", [header], imports) == data
            mf = read_module_summary(data)
            assert mf.module_name == f"Mod{case}"
            assert mf.imports == imports
            assert set(mf.rows) == set(header_items)
            for name, expected in header_items.items():
                decl, _ = deserialize_decl(mf, mf.rows[name])
                assert decl == expected
                assert encode_blob(decl) == encode_blob(expected)

        # Every emitted .pcm/.gmi in a generated corpus re-parses and passes
        # hash validation.
        corpus_dir = tmp_path / "files"
        module_map = generate_corpus(
            CorpusSpec(n_modules=12, defs_per_module=2, fwd_fanout=4,
                       dup_fraction=0.5, import_density=1.0, seed=12),
            corpus_dir,
        )
        pcm_files = sorted(corpus_dir.glob("*.pcm"))
        assert len(pcm_files) == 13
        for path in pcm_files:
            read_module_summary(path.read_bytes())  # validates framing + hash
        for index_name in (INDEX_FILE_NAME, LEXICAL_INDEX_FILE_NAME):
            index = load_index((corpus_dir / index_name).read_bytes())
            assert set(validate_index(index, corpus_dir).values()) == {Staleness.FRESH}


def test_criterion_5_odr_machinery(tmp_path):
    with criterion(5, "odr-machinery"):
        shared = Decl(
            "Dup", DeclKind.STRUCT_DEF,
            fields=(StructField("x", TypeRef("i32")),), origin=("a.dh", 1),
        )
        order = {"M0": 0, "M7": 7}
        payload = encode_payload(shared)
        entity = merge_entities([(shared, "M7", payload), (shared, "M0", payload)], order)
        assert entity.kind is EntityKind.DEFINITION
        assert entity.defining_module == "M0"

        other = Decl(
            "Dup", DeclKind.STRUCT_DEF,
            fields=(StructField("x", TypeRef("i64")),), origin=("b.dh", 1),
        )
        with pytest.raises(OdrViolation) as excinfo:
            merge_entities(
                [(shared, "M0", payload), (other, "M7", encode_payload(other))], order
            )
        assert {excinfo.value.module_a, excinfo.value.module_b} == {"M0", "M7"}

        corpus_dir = tmp_path / "dups"
        generate_corpus(
            CorpusSpec(n_modules=8, defs_per_module=2, dup_fraction=0.5, seed=5),
            corpus_dir,
        )
        modules = []
        for path in sorted(corpus_dir.glob("M*.pcm")):
            modules.append(read_module_summary(path.read_bytes()))
        pch = read_module_summary(build_pch(fold_rows(modules)))
        assert len(pch.rows) < sum(len(m.rows) for m in modules)


def test_criterion_6_cmssw_shape(cmssw_corpus, tmp_path):
    corpus_dir, module_map, spec, generation_seconds = cmssw_corpus
    with criterion(6, "cmssw-local-checkout", budget_seconds=30.0 - generation_seconds):
        full_index = load_index((corpus_dir / INDEX_FILE_NAME).read_bytes())
        # A definition owned by exactly one module keeps the local/release
        # comparison free of unrelated duplicate definers.
        cloned_module = identifier = None
        for ident in full_index.rows:
            definers = [p for p in full_index.entry(ident) if p.flags & PostingFlags.DEFINES]
            if len(definers) == 1:
                cloned_module = definers[0].module
                identifier = ident
                break
        assert cloned_module is not None

        index_path = tmp_path / "release.gmi"
        index_path.write_bytes(
            index_bytes(module_map, corpus_dir, IndexFlavor.SEMANTIC, [cloned_module])
        )
        index = load_index(index_path.read_bytes())
        assert index.excluded == (cloned_module,)
        assert not any(p.flags & PostingFlags.DEFINES for p in index.entry(identifier))

        local_root = tmp_path / "checkout"
        local_root.mkdir()
        local_header = parse_header(
            f"struct {identifier} {{ patched: i64; extra: i64; }};", "types.dh"
        )
        (local_root / f"{cloned_module}.pcm").write_bytes(
            compile_module(cloned_module, [local_header])
        )
        local_payload = encode_payload(local_header.items[0])

        session = open_session(
            module_map,
            SearchPaths((str(local_root),), str(corpus_dir)),
            Strategy.SEMANTIC_GMI,
            index_path=index_path,
        )
        resolution = session.resolve(identifier, Need.DEFINITION)
        assert resolution.outcome is ResolutionOutcome.RESOLVED
        assert resolution.entity.defining_module == cloned_module
        assert resolution.entity.canonical_payload == local_payload

        release_session = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI)
        release_payload = release_session.resolve(
            identifier, Need.DEFINITION
        ).entity.canonical_payload
        assert resolution.entity.canonical_payload != release_payload

        assert set(validate_index(index, corpus_dir).values()) == {Staleness.FRESH}


def test_criterion_7_index_invariants(cmssw_corpus, tmp_path):
    corpus_dir, module_map, _, _ = cmssw_corpus
    with criterion(7, "index-invariants"):
        corpora = [(corpus_dir, module_map)]
        gpad_dir = tmp_path / "gpad"
        corpora.append(
            (
                gpad_dir,
                generate_corpus(
                    CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7),
                    gpad_dir,
                ),
            )
        )
        rng = random.Random(777)
        for case in range(4):
            built = build_random_corpus(rng, tmp_path / f"inv{case}")
            corpora.append((built.dir, built.map))
        for directory, mapping in corpora:
            for name in (INDEX_FILE_NAME, LEXICAL_INDEX_FILE_NAME):
                index = load_index((Path(directory) / name).read_bytes())
                assert_index_consistent(index, directory, mapping)
            semantic = load_index((Path(directory) / INDEX_FILE_NAME).read_bytes())
            lexical = load_index((Path(directory) / LEXICAL_INDEX_FILE_NAME).read_bytes())
            assert list(semantic.rows) == list(lexical.rows)
            for identifier in semantic.rows:
                assert [(p.module, p.flags) for p in lexical.entry(identifier)] == [
                    (p.module, p.flags & ~PostingFlags.DEFINES) for p in semantic.entry(identifier)
                ]
