from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

from conftest import build_random_corpus, outcome_signature, random_workload, run_equivalence_check
from modix.bench import CorpusSpec, generate_corpus, open_corpus_session, write_corpus
from modix.declang import Need, parse_header
from modix.errors import (
    IndexStale,
    MissingIndex,
    MissingPch,
    MissingRootmap,
    ModuleNotFound,
    WrongFlavor,
)
from modix.gmi import (
    INDEX_FILE_NAME,
    LEXICAL_INDEX_FILE_NAME,
    IndexFlavor,
    Staleness,
    build_index,
    index_file_name,
    load_index,
    validate_index,
)
from modix.loader import INDEX_FLAVORS, CostModel, ResolutionOutcome, Strategy, open_session
from modix.modfile import PCH_MODULE_NAME, compile_module, read_module_summary
from modix.modulemap import Origin, Overlay, SearchPaths, load_modulemap, resolve_module_path

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


class TestStartup:
    def test_preload_all_loads_everything(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        session = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL)
        stats = session.stats()
        assert stats.modules_loaded == 6
        assert stats.load_order == tuple(f"M{i}" for i in range(6))
        assert stats.decls_deserialized == 6 * 6  # one def + five forwards each
        assert stats.lookups == 0

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
        with pytest.raises(MissingIndex):
            open_session(module_map, paths, Strategy.SEMANTIC_GMI)
        with pytest.raises(MissingIndex):
            open_session(
                module_map, paths, Strategy.SEMANTIC_GMI,
                index_path=corpus_dir / "nope.gmi",
            )

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
            expected_content += mf.summary_bytes + sum(e.blob_len for e in mf.ident_table)
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

    def test_second_resolve_changes_only_lookups(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        for strategy in Strategy:
            session = open_corpus_session(corpus_dir, strategy)
            session.resolve("S0_0", Need.DEFINITION)
            before = session.stats()
            repeat = session.resolve("S0_0", Need.DEFINITION)
            after = session.stats()
            assert repeat.outcome is ResolutionOutcome.RESOLVED
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
    @pytest.fixture
    def forward_only_corpus(self, tmp_path):
        corpus_dir = tmp_path / "fwd"
        write_corpus(
            corpus_dir,
            [
                ("M0", {"t.dh": "struct Ghost;\nstruct Real { x: i32; };\n"}),
                ("M1", {"t.dh": "struct Ghost;\n"}),
            ],
        )
        return corpus_dir

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
        index_data = build_index(module_map, corpus_dir, IndexFlavor.SEMANTIC, ["Pkg"])
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
            if resolve_module_path(paths, name, overlay)[1] is Origin.LOCAL
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
