from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path

import pytest

from conftest import build_random_corpus, outcome_signature, random_workload, run_equivalence_check
from conftest import index_bytes, write_local_rebuilds
from modix import modfile
from modix.bench import CorpusSpec, generate_corpus, open_corpus_session, write_corpus
from modix.declang import Need, parse_header
from modix.errors import (
    IndexStale,
    MissingIndex,
    MissingPch,
    MissingRootmap,
    ModuleNotFound,
    OdrViolation,
    UnreadableFile,
    WrongFlavor,
)
from modix.gmi import (
    INDEX_FILE_NAME,
    LEXICAL_INDEX_FILE_NAME,
    IndexFlavor,
    Staleness,
    index_file_name,
    load_index,
    validate_index,
)
from modix.interp import format_result, run_script
from modix.loader import INDEX_FLAVORS, CostModel, ResolutionOutcome, Strategy, open_session
from modix.modfile import PCH_MODULE_NAME, compile_module, read_module_summary
from modix.modulemap import Overlay, SearchPaths, find_local_module, load_modulemap

ZERO_COST = CostModel(0, 0, 0)


def _corpus_with_imports(tmp_path):
    """A -> B -> C import chain plus an unrelated D."""
    modules = [
        ("C", {"types.dh": "struct CT { x: i32; };\n"}),
        ("B", {"types.dh": 'include "C/types.dh";\nstruct BT { c: CT; };\n'}),
        ("A", {"types.dh": 'include "B/types.dh";\nstruct AT { b: BT; };\n'}),
        ("D", {"types.dh": "struct DT { x: bool; };\n"}),
    ]
    return write_corpus(tmp_path / "chain", modules)


@pytest.fixture
def forward_only_corpus(tmp_path):
    """Ghost is forward-declared in both modules and defined in neither."""
    corpus_dir = tmp_path / "fwd"
    write_corpus(
        corpus_dir,
        [
            ("M0", {"t.dh": "struct Ghost;\nstruct Real { x: i32; };\n"}),
            ("M1", {"t.dh": "struct Ghost;\n"}),
        ],
    )
    return corpus_dir


class TestStartup:
    def test_preload_all_loads_everything(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        session = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL)
        stats = session.stats()
        assert stats.modules_loaded == 6
        assert stats.load_order == tuple(f"M{i}" for i in range(6))
        assert stats.decls_deserialized == 6 * 6  # one def + five forwards each
        assert stats.lookups == 0

    def test_preload_all_holds_each_payload_once(self, corpus12):
        # The resident table is private; what it shares is the point here.
        session = open_corpus_session(corpus12, Strategy.PRELOAD_ALL)
        first: dict[bytes, bytes] = {}
        candidates = [c for cs in session._resident.values() for c in cs]
        for _, _, payload in candidates:
            assert first.setdefault(payload, payload) is payload
        assert len(candidates) > len(first)

    def test_pch_loads_exactly_one(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        stats = open_corpus_session(corpus_dir, Strategy.PCH).stats()
        assert stats.modules_loaded == 1
        assert stats.load_order == ("__pch__",)
        assert stats.decls_deserialized == 0  # blobs stay lazy

    def test_gmi_strategies_load_nothing(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        for strategy in (Strategy.SEMANTIC_GMI, Strategy.LEXICAL_GMI):
            stats = open_corpus_session(corpus_dir, strategy).stats()
            assert stats.modules_loaded == 0
            index_name = (
                INDEX_FILE_NAME if strategy is Strategy.SEMANTIC_GMI
                else LEXICAL_INDEX_FILE_NAME
            )
            index_size = (corpus_dir / index_name).stat().st_size
            assert stats.bytes_read == index_size
            assert stats.sim_memory_bytes == index_size

    def test_missing_artifacts(self, gpad_corpus):
        corpus_dir, module_map = gpad_corpus
        paths = SearchPaths((), str(corpus_dir))
        (corpus_dir / "__pch__.pcm").unlink()
        with pytest.raises(MissingPch):
            open_session(module_map, paths, Strategy.PCH)
        (corpus_dir / "modules.rootmap").unlink()
        with pytest.raises(MissingRootmap):
            open_session(module_map, paths, Strategy.TEXTUAL)
        for strategy, flavor in INDEX_FLAVORS.items():
            default = corpus_dir / index_file_name(flavor)
            default.unlink()
            with pytest.raises(MissingIndex) as excinfo:
                open_session(module_map, paths, strategy)
            assert str(excinfo.value) == f"index file not found: {default}"
        with pytest.raises(MissingIndex):
            open_session(
                module_map, paths, Strategy.SEMANTIC_GMI,
                index_path=corpus_dir / "nope.gmi",
            )

    def test_index_strategies_find_their_own_index(self, tmp_path, gpad_corpus):
        corpus_dir, module_map = gpad_corpus
        virtual = str(tmp_path / "mounted")
        overlay = Overlay(((virtual, str(corpus_dir)),))
        for strategy in INDEX_FLAVORS:
            for root, remap in ((str(corpus_dir), None), (virtual, overlay)):
                session = open_session(module_map, SearchPaths((), root), strategy, overlay=remap)
                assert session.resolve("S0_0", Need.DEFINITION).succeeded, (strategy, root)

    def test_flavor_mismatch_rejected(self, gpad_corpus):
        corpus_dir, module_map = gpad_corpus
        paths = SearchPaths((), str(corpus_dir))
        with pytest.raises(WrongFlavor):
            open_session(
                module_map, paths, Strategy.LEXICAL_GMI,
                index_path=corpus_dir / INDEX_FILE_NAME,
            )

    def test_preload_memory_is_overhead_plus_content(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        cost = CostModel(per_module_overhead_bytes=1000, per_module_overhead_ticks=0, bytes_per_tick=0)
        stats = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL, cost).stats()
        expected_content = 0
        for i in range(6):
            mf = read_module_summary((corpus_dir / f"M{i}.pcm").read_bytes())
            expected_content += mf.summary_bytes + sum(e.blob_len for e in mf.table.values())
        assert stats.sim_memory_bytes == 6 * 1000 + expected_content
        assert stats.bytes_read == expected_content

    def test_overhead_scales_with_module_count_only(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        with_overhead = open_corpus_session(
            corpus_dir, Strategy.PRELOAD_ALL, CostModel(16384, 0, 0)
        ).stats()
        without = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL, ZERO_COST).stats()
        assert with_overhead.sim_memory_bytes - without.sim_memory_bytes == 6 * 16384


class TestLoadModule:
    def test_import_chain_loads_depth_first(self, tmp_path):
        _corpus_with_imports(tmp_path)
        corpus_dir = tmp_path / "chain"
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        session = open_session(
            module_map, SearchPaths((), str(corpus_dir)), Strategy.SEMANTIC_GMI,
            index_path=corpus_dir / INDEX_FILE_NAME,
        )
        session.load_module("A")
        assert session.stats().load_order == ("C", "B", "A")

    def test_reload_is_idempotent(self, tmp_path):
        _corpus_with_imports(tmp_path)
        corpus_dir = tmp_path / "chain"
        session = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI)
        session.load_module("A")
        before = session.stats()
        session.load_module("A")
        session.load_module("B")
        assert session.stats() == before

    def test_missing_import_names_the_import(self, tmp_path):
        # Imports come from includes, and a release has no header of Ghost's
        # to include: a module file built elsewhere brings the import.
        corpus_dir = tmp_path / "broken"
        write_corpus(corpus_dir, [("A", {"t.dh": "struct AT;\n"})])
        header = parse_header("struct AT;\n", "t.dh")
        (corpus_dir / "A.pcm").write_bytes(compile_module("A", [header], ["Ghost"]))
        session = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI, allow_stale=True)
        with pytest.raises(ModuleNotFound) as excinfo:
            session.load_module("A")
        assert excinfo.value.name == "Ghost"

    def test_overhead_charged_once_per_module(self, tmp_path):
        _corpus_with_imports(tmp_path)
        corpus_dir = tmp_path / "chain"
        cost = CostModel(per_module_overhead_bytes=7777, per_module_overhead_ticks=0, bytes_per_tick=0)
        session = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI, cost)
        baseline = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI, ZERO_COST)
        session.load_module("A")
        session.load_module("B")
        session.resolve("AT", Need.DEFINITION)
        baseline.load_module("A")
        baseline.load_module("B")
        baseline.resolve("AT", Need.DEFINITION)
        overhead = session.stats().sim_memory_bytes - baseline.stats().sim_memory_bytes
        assert overhead == 3 * 7777  # C, B, A each exactly once


class TestResolve:
    def test_gpad_loads_per_strategy(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        expected = {
            Strategy.PRELOAD_ALL: 0,
            Strategy.PCH: 0,
            Strategy.TEXTUAL: 0,
            Strategy.LEXICAL_GMI: 6,
            Strategy.SEMANTIC_GMI: 1,
        }
        for strategy, workload_loads in expected.items():
            session = open_corpus_session(corpus_dir, strategy)
            before = session.stats()
            resolution = session.resolve("S0_0", Need.DEFINITION)
            assert resolution.outcome is ResolutionOutcome.RESOLVED
            delta = session.stats() - before
            assert delta.modules_loaded == workload_loads, strategy

    def test_gpad_false_positives(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        lexical = open_corpus_session(corpus_dir, Strategy.LEXICAL_GMI)
        lexical.resolve("S0_0", Need.DEFINITION)
        assert lexical.stats().false_positive_loads == 5
        semantic = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI)
        semantic.resolve("S0_0", Need.DEFINITION)
        assert semantic.stats().false_positive_loads == 0

    def test_false_positive_redeemed_by_later_resolution(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        session = open_corpus_session(corpus_dir, Strategy.LEXICAL_GMI)
        session.resolve("S0_0", Need.DEFINITION)
        assert session.stats().false_positive_loads == 5
        session.resolve("S3_0", Need.DEFINITION)  # M3 now contributes
        assert session.stats().false_positive_loads == 4

    def test_second_resolve_changes_only_lookups(self, gpad_corpus, forward_only_corpus):
        corpus_dir, _ = gpad_corpus
        resolved = ResolutionOutcome.RESOLVED
        cases = [
            (strategy, corpus_dir, "S0_0", Need.DEFINITION, resolved, resolved)
            for strategy in Strategy
        ]
        # A definition need after a forward-only synthesis stays cached too.
        cases.append((
            Strategy.SEMANTIC_GMI, forward_only_corpus, "Ghost", Need.FORWARD_OK,
            ResolutionOutcome.IMPLICIT_FORWARD, ResolutionOutcome.NOT_FOUND,
        ))
        for strategy, corpus, ident, first_need, first, second in cases:
            session = open_corpus_session(corpus, strategy)
            assert session.resolve(ident, first_need).outcome is first
            before = session.stats()
            repeat = session.resolve(ident, Need.DEFINITION)
            after = session.stats()
            assert repeat.outcome is second
            assert after.lookups == before.lookups + 1
            assert dataclasses.replace(after, lookups=before.lookups) == before

    def test_unknown_name_not_found_without_loads(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        for strategy in Strategy:
            session = open_corpus_session(corpus_dir, strategy)
            before = session.stats()
            resolution = session.resolve("Nope", Need.FORWARD_OK)
            assert resolution.outcome is ResolutionOutcome.NOT_FOUND
            assert (session.stats() - before).modules_loaded == 0


class TestSemanticForwardSynthesis:
    def test_forward_only_name_synthesizes_without_loads(self, forward_only_corpus):
        session = open_corpus_session(forward_only_corpus, Strategy.SEMANTIC_GMI)
        resolution = session.resolve("Ghost", Need.FORWARD_OK)
        assert resolution.outcome is ResolutionOutcome.IMPLICIT_FORWARD
        assert session.stats().modules_loaded == 0
        assert session.stats().false_positive_loads == 0

    def test_definition_need_on_forward_only_is_not_found(self, forward_only_corpus):
        session = open_corpus_session(forward_only_corpus, Strategy.SEMANTIC_GMI)
        resolution = session.resolve("Ghost", Need.DEFINITION)
        assert resolution.outcome is ResolutionOutcome.NOT_FOUND
        assert session.stats().modules_loaded == 0

    def test_forward_then_definition_upgrade(self, forward_only_corpus):
        session = open_corpus_session(forward_only_corpus, Strategy.SEMANTIC_GMI)
        first = session.resolve("Real", Need.FORWARD_OK)
        # A definition posting exists, so even a forward-ok use loads it.
        assert first.outcome is ResolutionOutcome.RESOLVED
        assert session.stats().modules_loaded == 1
        second = session.resolve("Real", Need.DEFINITION)
        assert second.outcome is ResolutionOutcome.RESOLVED
        assert session.stats().modules_loaded == 1

    def test_other_strategies_resolve_forward_entity(self, forward_only_corpus):
        for strategy in (Strategy.PRELOAD_ALL, Strategy.PCH, Strategy.LEXICAL_GMI, Strategy.TEXTUAL):
            session = open_corpus_session(forward_only_corpus, strategy)
            assert session.resolve("Ghost", Need.FORWARD_OK).outcome is ResolutionOutcome.RESOLVED
            assert session.resolve("Ghost", Need.DEFINITION).outcome is ResolutionOutcome.NOT_FOUND


class TestCostHonesty:
    def test_pch_bytes_are_summary_plus_touched_blobs(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        session = open_corpus_session(corpus_dir, Strategy.PCH, ZERO_COST)
        pch = read_module_summary((corpus_dir / "__pch__.pcm").read_bytes())
        touched = ["S0_0", "S3_0", "S5_0"]
        for name in touched:
            session.resolve(name, Need.DEFINITION)
            session.resolve(name, Need.DEFINITION)  # cache: no double charge
        expected = pch.summary_bytes + sum(pch.find(n).blob_len for n in touched)
        stats = session.stats()
        assert stats.bytes_read == expected
        assert stats.sim_memory_bytes == expected
        assert stats.decls_deserialized == len(touched)


class TestPatchPoints:
    """The traced `modfile.summaries_read` and `modfile.decls_decoded`
    metrics count calls of these two functions, so each summary and each
    declaration a session charges for must be exactly one call, and no
    declaration is decoded twice.  `merge_entities` compares the payload
    bytes its candidates carry, so a module strategy encodes nothing."""

    _MODULE_STRATEGIES = [
        Strategy.PRELOAD_ALL, Strategy.PCH, Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI,
    ]

    @pytest.mark.parametrize("strategy", _MODULE_STRATEGIES)
    def test_modfile_calls_match_stats(self, corpus12, monkeypatch, strategy):
        names = list(read_module_summary((corpus12 / "__pch__.pcm").read_bytes()).table)
        calls = {"read_module_summary": 0, "deserialize_decl": 0}
        decoded: list[tuple[str, str]] = []

        def count(name):
            fn = getattr(modfile, name)

            def counted(*args):
                calls[name] += 1
                if name == "deserialize_decl":
                    mf, identifier = args
                    decoded.append((mf.module_name, identifier))
                return fn(*args)

            monkeypatch.setattr(modfile, name, counted)

        count("read_module_summary")
        count("deserialize_decl")
        session = open_corpus_session(corpus12, strategy)
        for name in names + ["Nope"]:
            for need in (Need.FORWARD_OK, Need.DEFINITION):
                session.resolve(name, need)
        stats = session.stats()
        assert stats.modules_loaded > 0 and stats.decls_deserialized > 0
        assert calls == {
            "read_module_summary": stats.modules_loaded,
            "deserialize_decl": stats.decls_deserialized,
        }
        assert len(set(decoded)) == len(decoded)

    @pytest.mark.parametrize("strategy", _MODULE_STRATEGIES)
    def test_merge_encodes_nothing(self, corpus12, monkeypatch, strategy):
        names = list(read_module_summary((corpus12 / "__pch__.pcm").read_bytes()).table)

        def refuse(decl):
            raise AssertionError(f"encode_payload({decl.name!r}) called")

        monkeypatch.setattr(modfile, "encode_payload", refuse)
        session = open_corpus_session(corpus12, strategy)
        for name in names + ["Nope"]:
            for need in (Need.FORWARD_OK, Need.DEFINITION):
                session.resolve(name, need)
        assert session.stats().decls_deserialized > 0


def _count_found_rows(monkeypatch) -> list[tuple[str, str]]:
    """Record (module, name) for each `ModuleFile.find` that finds a row."""
    find = modfile.ModuleFile.find
    found: list[tuple[str, str]] = []

    def counted(self, name):
        entry = find(self, name)
        if entry is not None:
            found.append((self.module_name, name))
        return entry

    monkeypatch.setattr(modfile.ModuleFile, "find", counted)
    return found


class TestRowsFoundOnce:
    """A candidate's row is found once and handed on to `deserialize_decl`,
    so no session looks up the same row of the same module twice."""

    @pytest.mark.parametrize("strategy", TestPatchPoints._MODULE_STRATEGIES)
    def test_one_row_lookup_per_candidate(self, corpus12, monkeypatch, strategy):
        names = list(read_module_summary((corpus12 / "__pch__.pcm").read_bytes()).names)
        found = _count_found_rows(monkeypatch)
        session = open_corpus_session(corpus12, strategy)
        for name in names + ["Nope"]:
            for need in (Need.FORWARD_OK, Need.DEFINITION):
                session.resolve(name, need)
        decoded = session.stats().decls_deserialized
        assert decoded > 0
        # Preload-all decodes every row as it walks the tables, finding none.
        assert len(found) == (0 if strategy is Strategy.PRELOAD_ALL else decoded)
        assert len(set(found)) == len(found)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_row_found_twice_with_checkouts(self, tmp_path, monkeypatch, strategy):
        rng = random.Random(23)
        for case in range(10):
            corpus = build_random_corpus(rng, tmp_path / f"c{case}")
            local = tmp_path / f"local{case}"
            write_local_rebuilds(rng, corpus, local)
            found = _count_found_rows(monkeypatch)
            session = open_corpus_session(corpus.dir, strategy, local_roots=[str(local)])
            # Each name once: a lookup that raises OdrViolation caches nothing.
            for name in corpus.known + corpus.unknown:
                try:
                    session.resolve(name, Need.DEFINITION)
                except OdrViolation:
                    pass
            assert len(set(found)) == len(found), case
            monkeypatch.undo()


class TestRelocatability:
    def test_moved_corpus_still_works(self, tmp_path):
        import shutil

        from modix.bench import CorpusSpec, generate_corpus

        original = tmp_path / "before"
        generate_corpus(CorpusSpec(n_modules=4, defs_per_module=1, fwd_fanout=2, seed=8), original)
        moved = tmp_path / "elsewhere" / "after"
        moved.parent.mkdir()
        shutil.move(str(original), str(moved))
        for strategy in Strategy:
            session = open_corpus_session(moved, strategy)
            assert session.resolve("S2_0", Need.DEFINITION).succeeded


class TestTextual:
    def test_resolution_parses_header_and_includes(self, tmp_path):
        _corpus_with_imports(tmp_path)
        corpus_dir = tmp_path / "chain"
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        assert session.stats().headers_parsed == 0
        resolution = session.resolve("AT", Need.DEFINITION)
        assert resolution.outcome is ResolutionOutcome.RESOLVED
        stats = session.stats()
        assert stats.headers_parsed == 3  # A/types.dh + B + C via includes
        assert stats.modules_loaded == 0
        before = stats
        session.resolve("BT", Need.DEFINITION)  # already parsed via the cascade
        assert session.stats().headers_parsed == before.headers_parsed

    def test_header_bytes_are_charged(self, tmp_path):
        corpus_dir = tmp_path / "single"
        write_corpus(corpus_dir, [("M", {"t.dh": "struct A { x: i32; };\n"})])
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        rootmap_size = (corpus_dir / "modules.rootmap").stat().st_size
        assert session.stats().bytes_read == rootmap_size
        session.resolve("A", Need.DEFINITION)
        header_size = (corpus_dir / "M" / "t.dh").stat().st_size
        assert session.stats().bytes_read == rootmap_size + header_size

    def test_missing_header_raises_on_every_try(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        (corpus_dir / "M0" / "types.dh").unlink()
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        for _ in range(2):
            with pytest.raises(UnreadableFile, match="M0/types.dh"):
                session.resolve("S0_0", Need.DEFINITION)
        assert session.stats().headers_parsed == 0

    def test_failed_include_raises_on_every_try(self, tmp_path):
        _corpus_with_imports(tmp_path)
        corpus_dir = tmp_path / "chain"
        (corpus_dir / "C" / "types.dh").unlink()
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        before = session.stats()
        for _ in range(3):
            with pytest.raises(UnreadableFile, match="C/types.dh"):
                session.resolve("BT", Need.DEFINITION)
        after = session.stats()
        assert after.headers_parsed == 0
        assert after.bytes_read == before.bytes_read
        assert after.sim_memory_bytes == before.sim_memory_bytes

    @pytest.mark.parametrize("via", ["rootmap", "include"])
    def test_header_outside_release_root_raises_on_every_try(self, tmp_path, via):
        corpus_dir = tmp_path / "release"
        write_corpus(corpus_dir, [("M", {"t.dh": "struct A { x: i32; };\n"})])
        outside = tmp_path / "outside.dh"
        outside.write_text("struct Secret { x: i32; };\n", "utf-8")
        if via == "rootmap":
            ident, target = "Secret", "../outside.dh"
            line = f"Secret {target}\n"
        else:
            ident, target = "Inner", str(outside)
            (corpus_dir / "inner.dh").write_text(
                f'include "{target}";\nstruct Inner {{ s: Secret; }};\n', "utf-8"
            )
            line = "Inner inner.dh\n"
        with open(corpus_dir / "modules.rootmap", "a", encoding="utf-8") as rootmap:
            rootmap.write(line)
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        for _ in range(2):
            with pytest.raises(UnreadableFile, match=re.escape(target)):
                session.resolve(ident, Need.DEFINITION)
        assert session.stats().headers_parsed == 0


class TestLocalShadowing:
    @pytest.fixture
    def shadowed(self, tmp_path):
        corpus_dir = tmp_path / "release"
        write_corpus(
            corpus_dir,
            [
                ("Pkg", {"t.dh": "struct Thing { x: i32; };\n"}),
                ("Other", {"t.dh": "struct OtherT { x: i32; };\n"}),
            ],
        )
        local = tmp_path / "local"
        local.mkdir()
        header = parse_header("struct Thing { x: i32; y: i64; };", "t.dh")
        (local / "Pkg.pcm").write_bytes(compile_module("Pkg", [header]))
        return corpus_dir, local

    def _open(self, corpus_dir, local, strategy, index_name=INDEX_FILE_NAME, allow_stale=False):
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        index_path = corpus_dir / index_name if "gmi" in strategy.value else None
        return open_session(
            module_map,
            SearchPaths((str(local),), str(corpus_dir)),
            strategy,
            index_path=index_path,
            allow_stale=allow_stale,
        )

    def test_local_payload_wins(self, shadowed):
        corpus_dir, local = shadowed
        payloads = {}
        for strategy in (Strategy.PRELOAD_ALL, Strategy.SEMANTIC_GMI, Strategy.LEXICAL_GMI):
            index_name = (
                LEXICAL_INDEX_FILE_NAME if strategy is Strategy.LEXICAL_GMI else INDEX_FILE_NAME
            )
            session = self._open(corpus_dir, local, strategy, index_name)
            resolution = session.resolve("Thing", Need.DEFINITION)
            assert resolution.outcome is ResolutionOutcome.RESOLVED
            payloads[strategy] = resolution.entity.canonical_payload
        assert len(set(payloads.values())) == 1
        release_session = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL)
        release_payload = release_session.resolve("Thing", Need.DEFINITION).entity.canonical_payload
        assert payloads[Strategy.PRELOAD_ALL] != release_payload

    def test_every_strategy_takes_the_local_redefinition(self, shadowed):
        # pch and textual resolve a name the checkout declares as lexical-gmi
        # does, so neither the merged cache nor the rootmap's release header
        # answers for it.
        corpus_dir, local = shadowed
        signatures = {
            strategy: outcome_signature(
                self._open(corpus_dir, local, strategy, index_file_name(INDEX_FLAVORS.get(strategy))),
                "Thing", Need.DEFINITION,
            )
            for strategy in Strategy
        }
        assert len(set(signatures.values())) == 1, signatures
        release = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL)
        assert signatures[Strategy.TEXTUAL] != outcome_signature(release, "Thing", Need.DEFINITION)

    def test_local_summaries_load_eagerly_for_gmi(self, shadowed):
        corpus_dir, local = shadowed
        session = self._open(corpus_dir, local, Strategy.SEMANTIC_GMI)
        assert session.stats().load_order == ("Pkg",)

    def test_stale_index_detected(self, shadowed):
        corpus_dir, _ = shadowed
        header = parse_header("struct OtherT { x: f64; };", "t.dh")
        (corpus_dir / "Other.pcm").write_bytes(compile_module("Other", [header]))
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        paths = SearchPaths((), str(corpus_dir))
        with pytest.raises(IndexStale) as excinfo:
            open_session(
                module_map, paths, Strategy.SEMANTIC_GMI,
                index_path=corpus_dir / INDEX_FILE_NAME,
            )
        assert excinfo.value.stale_modules == ("Other",)
        session = open_session(
            module_map, paths, Strategy.SEMANTIC_GMI,
            index_path=corpus_dir / INDEX_FILE_NAME, allow_stale=True,
        )
        assert session.resolve("Thing", Need.DEFINITION).succeeded

    def test_excluded_module_consulted_directly(self, shadowed, tmp_path):
        corpus_dir, local = shadowed
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        index_data = index_bytes(module_map, corpus_dir, IndexFlavor.SEMANTIC, ["Pkg"])
        index_path = tmp_path / "excl.gmi"
        index_path.write_bytes(index_data)
        session = open_session(
            module_map,
            SearchPaths((str(local),), str(corpus_dir)),
            Strategy.SEMANTIC_GMI,
            index_path=index_path,
        )
        resolution = session.resolve("Thing", Need.DEFINITION)
        assert resolution.succeeded
        local_mf = read_module_summary((local / "Pkg.pcm").read_bytes())
        entry = local_mf.find("Thing")
        blob = local_mf.blob_region[entry.blob_offset:entry.blob_offset + entry.blob_len]
        assert resolution.entity.canonical_payload in blob

    @staticmethod
    def _excluded_import_corpus(tmp_path):
        """L includes X's header, so L imports X, and X imports Y.  Both
        indexes are built with X excluded; L is checked out locally."""
        corpus_dir = tmp_path / "release"
        write_corpus(
            corpus_dir,
            [
                ("Y", {"t.dh": "struct YT { x: i32; };\n"}),
                ("X", {"t.dh": 'include "Y/t.dh";\nstruct OnlyX { y: YT; };\n'}),
                ("L", {"t.dh": 'include "X/t.dh";\nstruct LT { x: OnlyX; };\n'}),
            ],
        )
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        for flavor in IndexFlavor:
            index_data = index_bytes(module_map, corpus_dir, flavor, ["X"])
            (corpus_dir / index_file_name(flavor)).write_bytes(index_data)
        local = tmp_path / "local"
        local.mkdir()
        (local / "L.pcm").write_bytes((corpus_dir / "L.pcm").read_bytes())
        return corpus_dir, local

    def test_excluded_module_loaded_as_import_is_consulted(self, tmp_path):
        corpus_dir, local = self._excluded_import_corpus(tmp_path)
        for strategy in INDEX_FLAVORS:
            session = open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])
            assert session.stats().load_order == ("Y", "X", "L"), strategy
            resolution = session.resolve("OnlyX", Need.DEFINITION)
            assert resolution.outcome is ResolutionOutcome.RESOLVED, strategy
            assert resolution.entity.defining_module == "X"

    def test_excluded_module_with_missing_import_fails_open(self, tmp_path):
        corpus_dir, _ = self._excluded_import_corpus(tmp_path)
        (corpus_dir / "Y.pcm").unlink()
        for strategy in INDEX_FLAVORS:
            with pytest.raises(ModuleNotFound) as excinfo:
                open_corpus_session(corpus_dir, strategy, allow_stale=True)
            assert excinfo.value.name == "Y", strategy


class TestOneShadowingRule:
    """A checkout replaces its release module in every strategy: a name's
    candidates are the local declarations plus those of the release modules
    that are not checked out.  Release M0 defines X; release M1 forward-declares
    X and defines Y; each case rebuilds M1 locally."""

    RELEASE = [
        ("M0", {"t.dh": "struct X { a: i64; };\n"}),
        ("M1", {"t.dh": "struct X;\nstruct Y { b: i32; };\n"}),
    ]

    @classmethod
    def _checkout(cls, tmp_path, local_m1, excluded=()):
        corpus_dir = tmp_path / "release"
        module_map = write_corpus(corpus_dir, cls.RELEASE)
        if excluded:
            lexical = index_bytes(module_map, corpus_dir, IndexFlavor.LEXICAL, list(excluded))
            (corpus_dir / LEXICAL_INDEX_FILE_NAME).write_bytes(lexical)
        local = tmp_path / "local"
        local.mkdir()
        (local / "M1.pcm").write_bytes(compile_module("M1", [parse_header(local_m1, "t.dh")]))
        return corpus_dir, local

    @pytest.mark.parametrize(
        "local_m1, statement, expected, excluded",
        [
            # Only the checkout's forward declaration used to be merged.
            ("struct X;\nstruct Y { b: i64; };", "sizeof(X);", "ok 8", ()),
            # The merged cache and the rootmap still held the release Y.
            ("struct X;", "sizeof(Y);", "fail not-found", ()),
            # The checkout's function used to hide the release definition.
            ("fn X() -> i32;\nstruct Y { b: i32; };", "sizeof(X);", "ok 8", ()),
            # No posting names M1, so only its release copy tells what it held.
            ("struct X;", "sizeof(Y);", "fail not-found", ("M1",)),
        ],
        ids=["definition-lost", "removed-name", "kind-hides-definition", "excluded-checkout"],
    )
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_named_cases(self, tmp_path, strategy, local_m1, statement, expected, excluded):
        corpus_dir, local = self._checkout(tmp_path, local_m1, excluded)
        session = open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])
        assert [format_result(r) for r in run_script(session, statement)] == [expected]

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_deleted_release_copy_of_a_checkout(self, tmp_path, strategy):
        # The index postings for M1 tell pch and textual what its copy held.
        corpus_dir, local = self._checkout(tmp_path, "struct X;")
        (corpus_dir / "M1.pcm").unlink()
        session = open_corpus_session(
            corpus_dir, strategy, local_roots=[str(local)], allow_stale=True
        )
        results = run_script(session, "sizeof(X);\nsizeof(Y);")
        assert [format_result(r) for r in results] == ["ok 8", "fail not-found"]
        if strategy is not Strategy.PRELOAD_ALL:
            with pytest.raises(IndexStale) as excinfo:
                open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])
            assert excinfo.value.stale_modules == ("M1",)

    @staticmethod
    def _excluded_checkout(tmp_path):
        """Release Y, X (importing Y) and L; the lexical index excludes X; L,
        which imports nothing, is checked out."""
        corpus_dir = tmp_path / "release"
        module_map = write_corpus(corpus_dir, [
            ("Y", {"t.dh": "struct YT { y: i32; };\n"}),
            ("X", {"t.dh": 'include "Y/t.dh";\nstruct XT { x: YT; };\n'}),
            ("L", {"t.dh": "struct LT { l: i32; };\n"}),
        ])
        lexical = index_bytes(module_map, corpus_dir, IndexFlavor.LEXICAL, ["X"])
        (corpus_dir / LEXICAL_INDEX_FILE_NAME).write_bytes(lexical)
        local = tmp_path / "local"
        local.mkdir()
        (local / "L.pcm").write_bytes((corpus_dir / "L.pcm").read_bytes())
        return corpus_dir, local

    @pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL], ids=lambda s: s.value)
    def test_excluded_modules_load_at_the_first_touched_lookup(self, tmp_path, strategy):
        corpus_dir, local = self._excluded_checkout(tmp_path)
        session = open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])
        pch = (PCH_MODULE_NAME,) if strategy is Strategy.PCH else ()
        assert session.stats().load_order == (*pch, "L")
        for name in ("YT", "XT"):  # no checkout touches these names
            assert session.resolve(name, Need.DEFINITION).succeeded
        assert session.stats().load_order == (*pch, "L")
        before = session.mark()
        assert session.resolve("LT", Need.DEFINITION).entity.defining_module == "L"
        assert session.stats(since=before).load_order == ("Y", "X")
        session.resolve("LT", Need.FORWARD_OK)
        assert session.stats().load_order == (*pch, "L", "Y", "X")

    @pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL], ids=lambda s: s.value)
    def test_excluded_module_with_missing_import_fails_each_touched_lookup(
        self, tmp_path, strategy
    ):
        corpus_dir, local = self._excluded_checkout(tmp_path)
        (corpus_dir / "Y.pcm").unlink()
        session = open_corpus_session(
            corpus_dir, strategy, local_roots=[str(local)], allow_stale=True
        )
        for _ in range(2):
            with pytest.raises(ModuleNotFound) as excinfo:
                session.resolve("LT", Need.DEFINITION)
            assert excinfo.value.name == "Y"

    @pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL], ids=lambda s: s.value)
    def test_checkout_needs_the_lexical_index(self, tmp_path, strategy):
        corpus_dir, local = self._checkout(tmp_path, "struct X;")
        (corpus_dir / LEXICAL_INDEX_FILE_NAME).unlink()
        with pytest.raises(MissingIndex, match=re.escape(LEXICAL_INDEX_FILE_NAME)):
            open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])

    @pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL], ids=lambda s: s.value)
    def test_checkout_validates_the_lexical_index(self, tmp_path, strategy):
        corpus_dir, local = self._checkout(tmp_path, "struct X;")
        rebuilt = parse_header("struct X { a: i64; };\nstruct Z { c: bool; };", "t.dh")
        (corpus_dir / "M0.pcm").write_bytes(compile_module("M0", [rebuilt]))
        with pytest.raises(IndexStale) as excinfo:
            open_corpus_session(corpus_dir, strategy, local_roots=[str(local)])
        assert excinfo.value.stale_modules == ("M0",)
        session = open_corpus_session(
            corpus_dir, strategy, local_roots=[str(local)], allow_stale=True
        )
        assert [format_result(r) for r in run_script(session, "sizeof(Y);")] == ["fail not-found"]

    @pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL], ids=lambda s: s.value)
    def test_release_only_session_reads_no_index(self, tmp_path, strategy):
        corpus_dir = tmp_path / "release"
        write_corpus(corpus_dir, self.RELEASE)
        before = open_corpus_session(corpus_dir, strategy).stats()
        (corpus_dir / LEXICAL_INDEX_FILE_NAME).unlink()
        assert open_corpus_session(corpus_dir, strategy).stats() == before

    def test_checkout_charges_the_index_and_release_copies(self, tmp_path):
        corpus_dir, local = self._checkout(tmp_path, "struct X;")
        release = open_corpus_session(corpus_dir, Strategy.PCH).stats()
        session = open_corpus_session(corpus_dir, Strategy.PCH, local_roots=[str(local)])
        local_m1 = read_module_summary((local / "M1.pcm").read_bytes())
        release_m1 = read_module_summary((corpus_dir / "M1.pcm").read_bytes())
        index_bytes = (corpus_dir / LEXICAL_INDEX_FILE_NAME).stat().st_size
        assert session.stats().load_order == (PCH_MODULE_NAME, "M1")
        assert session.stats().bytes_read == (
            release.bytes_read + local_m1.summary_bytes + index_bytes + release_m1.summary_bytes
        )
        session.resolve("X", Need.DEFINITION)
        assert session.stats().load_order[-1] == "M0"


class TestStaleIndex:
    def test_deleted_module_file_is_stale(self, gpad_corpus):
        # A session open applies `modix validate`'s rule: every module that
        # is not fresh, missing ones included, makes the index stale.
        corpus_dir, _ = gpad_corpus
        (corpus_dir / "M1.pcm").unlink()
        for strategy in INDEX_FLAVORS:
            with pytest.raises(IndexStale) as excinfo:
                open_corpus_session(corpus_dir, strategy)
            assert excinfo.value.stale_modules == ("M1",)
            open_corpus_session(corpus_dir, strategy, allow_stale=True)

    def test_flipped_blob_byte_is_stale(self, gpad_corpus):
        # The hash field is left as it was, so only a full rehash notices.
        corpus_dir, _ = gpad_corpus
        path = corpus_dir / "M3.pcm"
        data = bytearray(path.read_bytes())
        data[read_module_summary(bytes(data)).summary_bytes] ^= 0x01
        path.write_bytes(data)
        index = load_index((corpus_dir / INDEX_FILE_NAME).read_bytes())
        report = validate_index(index, corpus_dir)
        assert report.modules_with(Staleness.HASH_MISMATCH) == ("M3",)
        with pytest.raises(IndexStale) as excinfo:
            open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI)
        assert excinfo.value.stale_modules == ("M3",)

    @pytest.mark.parametrize(
        "module, headers, s0_definition",
        [
            # M1 loses its forward declaration of S0_0, which M0 defines.
            ("M1", ("types.dh",), ("definition",)),
            # M0, the definer of S0_0, loses it; M1..M5 still forward-declare it.
            ("M0", ("fwd.dh",), ("not-found",)),
        ],
        ids=["mentioner", "definer"],
    )
    def test_posting_for_a_rebuilt_module_adds_no_candidate(
        self, gpad_corpus, module, headers, s0_definition
    ):
        corpus_dir, _ = gpad_corpus
        path = corpus_dir / f"{module}.pcm"
        imports = read_module_summary(path.read_bytes()).imports
        asts = [parse_header((corpus_dir / module / h).read_text("utf-8"), h) for h in headers]
        path.write_bytes(compile_module(module, asts, imports))
        lexical = open_corpus_session(corpus_dir, Strategy.LEXICAL_GMI, allow_stale=True)
        semantic = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI, allow_stale=True)
        for ident in (f"S{m}_0" for m in range(6)):
            for need in (Need.FORWARD_OK, Need.DEFINITION):
                assert outcome_signature(lexical, ident, need) == outcome_signature(
                    semantic, ident, need
                ), (ident, need)
        assert outcome_signature(lexical, "S0_0", Need.DEFINITION)[:1] == s0_definition

    def test_posting_for_a_deleted_module_adds_no_candidate(self, gpad_corpus):
        # M1 forward-declares S0_0 (which M0 defines) and defines S1_0.
        corpus_dir, _ = gpad_corpus
        index = load_index((corpus_dir / INDEX_FILE_NAME).read_bytes())
        names = list(index.postings)
        (corpus_dir / "M1.pcm").unlink()
        lexical = open_corpus_session(corpus_dir, Strategy.LEXICAL_GMI, allow_stale=True)
        semantic = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI, allow_stale=True)
        for ident in names:
            for need in (Need.FORWARD_OK, Need.DEFINITION):
                assert outcome_signature(lexical, ident, need) == outcome_signature(
                    semantic, ident, need
                ), (ident, need)
        assert outcome_signature(lexical, "S0_0", Need.DEFINITION)[0] == "definition"
        assert outcome_signature(lexical, "S1_0", Need.DEFINITION) == ("not-found",)


class TestOverlay:
    def test_session_reads_through_overlay(self, tmp_path, gpad_corpus):
        corpus_dir, module_map = gpad_corpus
        virtual = str(tmp_path / "mounted")
        overlay = Overlay(((virtual, str(corpus_dir)),))
        session = open_session(
            module_map,
            SearchPaths((), virtual),
            Strategy.SEMANTIC_GMI,
            index_path=Path(virtual) / INDEX_FILE_NAME,
            overlay=overlay,
        )
        assert session.resolve("S0_0", Need.DEFINITION).succeeded
        assert session.stats().modules_loaded == 1

    def test_startup_local_checkouts_match_module_path_search(self, tmp_path, monkeypatch):
        # The overlay remaps the prefix `mnt`, which `./mnt/Pkg.pcm` does not
        # start with: Pkg is a release module, and only Other is checked out.
        corpus_dir = tmp_path / "release"
        write_corpus(
            corpus_dir,
            [
                ("Pkg", {"t.dh": "struct Thing { x: i32; };\n"}),
                ("Other", {"t.dh": "struct OtherT { x: i32; };\n"}),
            ],
        )
        mounted = tmp_path / "mounted"
        checkout = tmp_path / "checkout"
        for directory, name, text in (
            (mounted, "Pkg", "struct Thing { x: i64; };"),
            (checkout, "Other", "struct OtherT { x: i64; };"),
        ):
            directory.mkdir()
            header = parse_header(text, "t.dh")
            (directory / f"{name}.pcm").write_bytes(compile_module(name, [header]))
        monkeypatch.chdir(tmp_path)
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        paths = SearchPaths(("./mnt", str(checkout)), str(corpus_dir))
        overlay = Overlay((("mnt", str(mounted)),))
        local = {
            name
            for name in module_map.names
            if find_local_module(paths, name, overlay) is not None
        }
        assert local == {"Other"}
        for strategy in (Strategy.PCH, Strategy.TEXTUAL, Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI):
            index_name = (
                LEXICAL_INDEX_FILE_NAME if strategy is Strategy.LEXICAL_GMI else INDEX_FILE_NAME
            )
            session = open_session(
                module_map, paths, strategy, index_path=corpus_dir / index_name, overlay=overlay
            )
            assert set(session.stats().load_order) - {PCH_MODULE_NAME} == local, strategy

    @staticmethod
    def _open_mounted(corpus_dir, strategy, allow_stale=False):
        # `./rel` is kept verbatim by `os.path.join` but normalized away by
        # `pathlib`, so only one spelling of release-root files matches.
        module_map = load_modulemap(corpus_dir / "module.modulemap")
        flavor = INDEX_FLAVORS.get(strategy)
        index_path = f"./rel/{index_file_name(flavor)}" if flavor is not None else None
        return open_session(
            module_map,
            SearchPaths((), "./rel"),
            strategy,
            index_path=index_path,
            allow_stale=allow_stale,
            overlay=Overlay((("./rel", str(corpus_dir)),)),
        )

    def test_release_root_overlay_opens_every_strategy(self, tmp_path, monkeypatch):
        rng = random.Random(41)
        corpus = build_random_corpus(rng, tmp_path / "corpus")
        workload = random_workload(rng, corpus, 40)
        monkeypatch.chdir(tmp_path)
        for strategy in Strategy:
            direct = open_corpus_session(corpus.dir, strategy)
            mounted = self._open_mounted(corpus.dir, strategy)
            assert [outcome_signature(mounted, i, n) for i, n in workload] == [
                outcome_signature(direct, i, n) for i, n in workload
            ], strategy

    def test_release_root_overlay_keeps_staleness_check(self, tmp_path, monkeypatch, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        headers = [
            parse_header((corpus_dir / "M1" / name).read_text("utf-8"), name)
            for name in ("fwd.dh", "types.dh")
        ]
        headers.append(parse_header("struct Extra { x: i32; };", "extra.dh"))
        (corpus_dir / "M1.pcm").write_bytes(compile_module("M1", headers))
        monkeypatch.chdir(tmp_path)
        for strategy in INDEX_FLAVORS:
            with pytest.raises(IndexStale) as excinfo:
                self._open_mounted(corpus_dir, strategy)
            assert excinfo.value.stale_modules == ("M1",)
            session = self._open_mounted(corpus_dir, strategy, allow_stale=True)
            assert session.resolve("S0_0", Need.DEFINITION).succeeded


class TestBounds:
    def test_fresh_session_single_resolve_bound(self, tmp_path):
        rng = random.Random(77)
        corpus = build_random_corpus(rng, tmp_path / "fresh")
        for ident in corpus.known[:10]:
            semantic = open_corpus_session(corpus.dir, Strategy.SEMANTIC_GMI)
            lexical = open_corpus_session(corpus.dir, Strategy.LEXICAL_GMI)
            semantic.resolve(ident, Need.DEFINITION)
            lexical.resolve(ident, Need.DEFINITION)
            assert semantic.stats().modules_loaded <= lexical.stats().modules_loaded

    def test_cumulative_loads_are_nested_across_strategies(self, tmp_path):
        rng = random.Random(1234)
        for case in range(5):
            corpus = build_random_corpus(rng, tmp_path / f"c{case}")
            n = len(corpus.map.defs)
            semantic = open_corpus_session(corpus.dir, Strategy.SEMANTIC_GMI)
            lexical = open_corpus_session(corpus.dir, Strategy.LEXICAL_GMI)
            for ident, need in random_workload(rng, corpus, 30):
                semantic.resolve(ident, need)
                lexical.resolve(ident, need)
                loaded_s = set(semantic.stats().load_order)
                loaded_l = set(lexical.stats().load_order)
                assert loaded_s <= loaded_l
                assert len(loaded_l) <= n


class TestEquivalence:
    def test_mini_equivalence_run(self, tmp_path):
        rng = random.Random(99)
        for case in range(15):
            corpus = build_random_corpus(rng, tmp_path / f"eq{case}")
            workload = random_workload(rng, corpus, 30)
            run_equivalence_check(corpus, workload)

    def test_local_checkout_equivalence(self, tmp_path):
        # Rebuilt checkouts over 100 seeded corpora: every strategy answers
        # a name as preload-all does, an ODR violation included.
        rng = random.Random(2016)
        for case in range(100):
            corpus = build_random_corpus(rng, tmp_path / f"eq{case}")
            local = tmp_path / f"local{case}"
            write_local_rebuilds(rng, corpus, local)
            run_equivalence_check(corpus, random_workload(rng, corpus, 30), (str(local),))


class TestFalsePositiveElimination:
    def test_unique_definers_mean_zero_semantic_false_positives(self, tmp_path):
        # Every identifier has exactly one DEFINES posting (no duplicates) and
        # no imports drag unrelated modules in.
        corpus_dir = tmp_path / "unique"
        spec = CorpusSpec(n_modules=9, defs_per_module=2, fwd_fanout=5, seed=31)
        generate_corpus(spec, corpus_dir)
        session = open_corpus_session(corpus_dir, Strategy.SEMANTIC_GMI)
        for m in range(9):
            for k in range(2):
                assert session.resolve(f"S{m}_{k}", Need.DEFINITION).succeeded
        assert session.stats().false_positive_loads == 0
        assert session.stats().modules_loaded == 9

    def test_running_count_matches_recount_from_public_data(self, tmp_path):
        # A false positive is a module a lookup loaded that has not yet been
        # the defining module of a resolved hit; recount that from the load
        # order and the resolutions alone after every resolve.
        rng = random.Random(2718)
        for case in range(12):
            corpus = build_random_corpus(rng, tmp_path / f"fp{case}")
            workload = random_workload(rng, corpus, 40)
            for strategy in INDEX_FLAVORS:
                session = open_corpus_session(corpus.dir, strategy)
                startup = session.stats().modules_loaded
                redeemed: set[str] = set()
                for ident, need in workload:
                    resolution = session.resolve(ident, need)
                    if resolution.outcome is ResolutionOutcome.RESOLVED:
                        redeemed.add(resolution.entity.defining_module)
                    stats = session.stats()
                    recount = sum(
                        1 for name in stats.load_order[startup:] if name not in redeemed
                    )
                    assert stats.false_positive_loads == recount, (case, strategy, ident)


class TestCostIdentities:
    def test_overhead_is_modules_loaded_times_the_per_module_cost(self, tmp_path):
        # With one byte per tick, every read costs exactly its length in ticks.
        costs = (CostModel(), CostModel(7, 3, 1))
        rng = random.Random(314)
        for case in range(8):
            corpus = build_random_corpus(rng, tmp_path / f"cost{case}")
            workload = random_workload(rng, corpus, 30)
            for strategy in Strategy:
                for cost in costs:
                    session = open_corpus_session(corpus.dir, strategy, cost)
                    for ident, need in workload:
                        session.resolve(ident, need)
                        stats = session.stats()
                        loaded = stats.modules_loaded
                        assert stats.sim_memory_bytes == (
                            stats.bytes_read + loaded * cost.per_module_overhead_bytes
                        ), (case, strategy, cost, ident)
                        if cost.bytes_per_tick == 1:
                            assert stats.ticks == (
                                stats.bytes_read + loaded * cost.per_module_overhead_ticks
                            ), (case, strategy, ident)


class TestMonotonicity:
    def test_counters_never_decrease(self, tmp_path):
        rng = random.Random(6)
        corpus = build_random_corpus(rng, tmp_path / "mono")
        fields = (
            "modules_loaded", "decls_deserialized", "bytes_read",
            "headers_parsed", "sim_memory_bytes", "ticks", "lookups",
        )
        for strategy in Strategy:
            session = open_corpus_session(corpus.dir, strategy)
            previous = session.stats()
            for ident, need in random_workload(rng, corpus, 25):
                session.resolve(ident, need)
                current = session.stats()
                # false_positive_loads is deliberately exempt: a later hit can
                # redeem an earlier speculative load.
                for field in fields:
                    assert getattr(current, field) >= getattr(previous, field)
                assert current.load_order[: previous.modules_loaded] == previous.load_order
                previous = current
