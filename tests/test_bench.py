from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from modix import modfile
from modix.bench import (
    CorpusSpec,
    emit_report,
    generate_corpus,
    generate_replicated_corpus,
    load_spec,
    open_corpus_session,
    run_benchmark,
)
from modix.declang import _match_header
from modix.errors import EmptyReport
from modix.loader import CostModel, Strategy

ALL = list(Strategy)


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestCorpusSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_modules=0)
        with pytest.raises(ValueError):
            CorpusSpec(n_modules=3, fwd_fanout=3)
        with pytest.raises(ValueError):
            CorpusSpec(n_modules=3, dup_fraction=1.5)
        with pytest.raises(ValueError):
            CorpusSpec(n_modules=3, framework_modules=4)
        with pytest.raises(ValueError, match="defs_per_module must be >= 1"):
            CorpusSpec(n_modules=3, defs_per_module=0)
        with pytest.raises(ValueError, match="import_density must be >= 0"):
            CorpusSpec(n_modules=3, import_density=-1)

    def test_load_spec(self):
        spec = load_spec("# hi\nn_modules = 6\nfwd_fanout = 5\ndup_fraction = 0.25\nseed = 3\n")
        assert spec == CorpusSpec(n_modules=6, fwd_fanout=5, dup_fraction=0.25, seed=3)

    def test_load_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            load_spec("n_modules = 2\nwat = 1\n")
        with pytest.raises(ValueError):
            load_spec("n_modules\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_modules = abc", "line 1: 'n_modules' must be an integer, got 'abc'"),
            ("n_modules = 4\ndup_fraction = half",
             "line 2: 'dup_fraction' must be a number, got 'half'"),
            ("n_modules = 4\n\nimport_density = 1e",
             "line 3: 'import_density' must be a number, got '1e'"),
        ],
    )
    def test_load_spec_names_line_and_key_of_a_bad_value(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            load_spec(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_modules = 4\ndefs_per_module = 0", "line 2: defs_per_module must be >= 1"),
            ("# range\nimport_density = -1\nn_modules = 4",
             "line 2: import_density must be >= 0"),
        ],
    )
    def test_load_spec_names_the_line_of_an_out_of_range_value(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            load_spec(text)
        assert str(excinfo.value) == message

    def test_bundled_scenario_parses(self):
        text = resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
        spec = load_spec(text)
        assert spec.n_modules == 319
        assert spec.framework_modules == 190


class TestGenerateCorpus:
    def test_trivial_spec(self, tmp_path):
        module_map = generate_corpus(CorpusSpec(n_modules=1), tmp_path / "one")
        assert module_map.names == ("M0",)
        session = open_corpus_session(tmp_path / "one", Strategy.PRELOAD_ALL)
        assert session.stats().modules_loaded == 1
        assert session.stats().decls_deserialized == 1

    def test_gpad_shape(self, tmp_path):
        from modix.gmi import PostingFlags, load_index

        generate_corpus(
            CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7),
            tmp_path / "gpad",
        )
        index = load_index((tmp_path / "gpad" / "modules.gmi").read_bytes())
        postings = index.entry("S0_0")
        assert len(postings) == 6
        assert sum(1 for p in postings if p.flags & PostingFlags.DEFINES) == 1

    def test_deterministic_for_fixed_seed(self, tmp_path):
        spec = CorpusSpec(
            n_modules=8, defs_per_module=3, fwd_fanout=3,
            dup_fraction=0.5, import_density=1.0, seed=42,
        )
        generate_corpus(spec, tmp_path / "a")
        generate_corpus(spec, tmp_path / "b")
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_matches_golden_digests(self, tmp_path):
        # Pins the byte layout of every generated file, .pcm and .gmi included.
        spec = CorpusSpec(
            n_modules=12, defs_per_module=3, fwd_fanout=3,
            dup_fraction=0.5, import_density=1.0, seed=7,
        )
        generate_corpus(spec, tmp_path / "c")
        golden = Path(__file__).parent / "data" / "corpus12_sha256.txt"
        expected = {}
        for line in golden.read_text("utf-8").splitlines():
            digest, path = line.split("  ")
            expected[path] = digest
        assert _tree_digest(tmp_path / "c") == expected

    def test_seed_changes_content(self, tmp_path):
        base = dict(n_modules=4, defs_per_module=2, import_density=1.0, dup_fraction=0.5)
        generate_corpus(CorpusSpec(seed=1, **base), tmp_path / "a")
        generate_corpus(CorpusSpec(seed=2, **base), tmp_path / "b")
        assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "b")

    def test_framework_naming(self, tmp_path):
        module_map = generate_corpus(
            CorpusSpec(n_modules=4, framework_modules=2, seed=1), tmp_path / "fw"
        )
        assert module_map.names == ("Fwk000", "Fwk001", "Ext000", "Ext001")

    def test_reads_each_module_file_once(self, tmp_path, monkeypatch):
        # The indexes fold the summaries the compile step already holds.
        read = modfile.read_module_summary
        calls = []

        def counted(data):
            calls.append(1)
            return read(data)

        monkeypatch.setattr(modfile, "read_module_summary", counted)
        spec = CorpusSpec(
            n_modules=12, defs_per_module=3, fwd_fanout=3,
            dup_fraction=0.5, import_density=1.0, seed=7,
        )
        generate_corpus(spec, tmp_path / "c")
        assert len(calls) == 12

    def test_pcm_count_matches_spec(self, tmp_path):
        generate_corpus(CorpusSpec(n_modules=12, seed=5), tmp_path / "c")
        assert len(list((tmp_path / "c").glob("*.pcm"))) == 13  # 12 modules + pch


class TestRunBenchmark:
    def test_empty_workload_reflects_pure_startup(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        rows = run_benchmark(corpus_dir, "", ALL, scenario="gpad")
        by_strategy = {r.strategy: r for r in rows}
        assert by_strategy["preload-all"].startup.modules_loaded == 6
        assert by_strategy["pch"].startup.modules_loaded == 1
        for row in rows:
            assert row.workload.modules_loaded == 0
            assert row.workload.lookups == 0

    def test_gpad_workload_row_shape(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        rows = run_benchmark(corpus_dir, "new S0_0;\n", ALL, scenario="gpad")
        wl = {r.strategy: r.workload.modules_loaded for r in rows}
        assert wl == {
            "preload-all": 0, "pch": 0, "textual": 0, "lexical-gmi": 6, "semantic-gmi": 1,
        }

    def test_ordering_claims(self, tmp_path):
        for seed in (3, 11):
            corpus_dir = tmp_path / f"ord{seed}"
            spec = CorpusSpec(
                n_modules=10, defs_per_module=2, fwd_fanout=4,
                dup_fraction=0.3, seed=seed,
            )
            generate_corpus(spec, corpus_dir)
            workload = "new S0_0;\nsizeof(S3_1);\ncall S5_0;\n"
            rows = {r.strategy: r for r in run_benchmark(corpus_dir, workload, ALL)}
            preload = rows["preload-all"]
            lexical = rows["lexical-gmi"]
            semantic = rows["semantic-gmi"]
            assert preload.startup.sim_memory_bytes > lexical.startup.sim_memory_bytes
            assert lexical.startup.sim_memory_bytes >= semantic.startup.sim_memory_bytes
            total = lambda r: r.startup.modules_loaded + r.workload.modules_loaded
            assert total(semantic) <= total(lexical) <= total(preload) == 10
            assert rows["pch"].startup.modules_loaded == 1


class TestDuplicationClaims:
    def test_dedup_keeps_pch_below_module_totals(self, tmp_path):
        corpus_dir = tmp_path / "dups"
        generate_corpus(
            CorpusSpec(n_modules=8, defs_per_module=2, fwd_fanout=2,
                       dup_fraction=0.5, seed=13),
            corpus_dir,
        )
        module_bytes = sum(
            p.stat().st_size for p in corpus_dir.glob("M*.pcm")
        )
        zero = CostModel(0, 0, 0)
        pch = open_corpus_session(corpus_dir, Strategy.PCH, zero)
        preload = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL, zero)
        workload_names = [f"S{m}_0" for m in range(8)]
        from modix.declang import Need
        for name in workload_names:
            pch.resolve(name, Need.DEFINITION)
            preload.resolve(name, Need.DEFINITION)
        assert pch.stats().sim_memory_bytes < module_bytes
        assert preload.stats().bytes_read >= pch.stats().bytes_read


class TestBundledScenario:
    def test_preload_startup_memory_at_least_10x_pch(self, tmp_path):
        text = resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
        corpus_dir = tmp_path / "cmssw"
        generate_corpus(load_spec(text), corpus_dir)
        preload = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL).stats()
        pch = open_corpus_session(corpus_dir, Strategy.PCH).stats()
        assert preload.sim_memory_bytes >= 10 * pch.sim_memory_bytes


    @pytest.mark.parametrize("spec_name", ["baseline", "cmssw319"])
    def test_header_pattern_takes_every_generated_header(self, tmp_path, spec_name):
        """The benchmark's headers go through the pattern, not the Cursor."""
        if spec_name == "cmssw319":
            text = resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
            spec = load_spec(text)
        else:
            spec = CorpusSpec(n_modules=30, defs_per_module=4, fwd_fanout=4, dup_fraction=0.6,
                              import_density=1.0, seed=20)
        generate_corpus(spec, tmp_path)
        headers = sorted(tmp_path.glob("*/*.dh"))
        assert len(headers) == 2 * spec.n_modules
        for header in headers:
            assert _match_header(header.read_text("utf-8"), header.name) is not None, header


class TestReplicatedCorpus:
    def test_preload_memory_is_exactly_affine(self, tmp_path):
        points = {}
        for n in (3, 7, 12):
            corpus_dir = tmp_path / f"r{n}"
            generate_replicated_corpus(n, 2, corpus_dir)
            stats = open_corpus_session(corpus_dir, Strategy.PRELOAD_ALL).stats()
            points[n] = stats.sim_memory_bytes
        ns = sorted(points)
        slope_a = (points[ns[1]] - points[ns[0]]) / (ns[1] - ns[0])
        slope_b = (points[ns[2]] - points[ns[1]]) / (ns[2] - ns[1])
        assert slope_a == slope_b
        assert points[ns[0]] % ns[0] == 0  # line passes through the origin


class TestEmitReport:
    def test_single_row_csv(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        rows = run_benchmark(corpus_dir, "", [Strategy.PCH], scenario="gpad")
        text = emit_report(rows, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("scenario,strategy,startup_modules,")
        assert len(lines) == 2
        assert lines[1].startswith("gpad,pch,1,")

    def test_rows_sorted_by_scenario_then_strategy(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        rows = run_benchmark(
            corpus_dir, "", [Strategy.SEMANTIC_GMI, Strategy.PCH, Strategy.LEXICAL_GMI]
        )
        lines = emit_report(rows, "csv").strip().splitlines()[1:]
        strategies = [line.split(",")[1] for line in lines]
        assert strategies == sorted(strategies)

    def test_gpad_wl_modules_column(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        strategies = [Strategy.PRELOAD_ALL, Strategy.PCH, Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI]
        rows = run_benchmark(corpus_dir, "new S0_0;\n", strategies, scenario="g")
        lines = emit_report(rows, "csv").strip().splitlines()[1:]
        wl_modules = {line.split(",")[1]: line.split(",")[6] for line in lines}
        assert wl_modules == {
            "preload-all": "0", "pch": "0", "lexical-gmi": "6", "semantic-gmi": "1",
        }

    def test_markdown_format(self, gpad_corpus):
        corpus_dir, _ = gpad_corpus
        rows = run_benchmark(corpus_dir, "", [Strategy.PCH])
        text = emit_report(rows, "markdown")
        assert text.startswith("| scenario | strategy |")
        assert "| --- |" in text.splitlines()[1]

    def test_empty_rows_rejected(self):
        with pytest.raises(EmptyReport):
            emit_report([], "csv")
        with pytest.raises(ValueError):
            emit_report([object()], "html")

    def test_reports_are_reproducible(self, tmp_path):
        spec = CorpusSpec(n_modules=5, defs_per_module=2, fwd_fanout=2, seed=9)
        reports = []
        for sub in ("x", "y"):
            corpus_dir = tmp_path / sub
            generate_corpus(spec, corpus_dir)
            rows = run_benchmark(corpus_dir, "new S1_0;\n", ALL, scenario="same")
            reports.append(emit_report(rows, "csv"))
        assert reports[0] == reports[1]


class TestRootmap:
    def test_rootmap_covers_every_identifier(self, tmp_path):
        corpus_dir = tmp_path / "cover"
        generate_corpus(
            CorpusSpec(n_modules=6, defs_per_module=2, fwd_fanout=3, dup_fraction=0.5, seed=4),
            corpus_dir,
        )
        rootmap = {
            line.split()[0]
            for line in (corpus_dir / "modules.rootmap").read_text().splitlines()
            if line.strip()
        }
        expected = {f"S{m}_{k}" for m in range(6) for k in range(2)}
        assert rootmap == expected

    def test_textual_resolves_duplicated_names(self, tmp_path):
        corpus_dir = tmp_path / "dup"
        generate_corpus(
            CorpusSpec(n_modules=4, defs_per_module=2, dup_fraction=1.0, seed=2), corpus_dir
        )
        session = open_corpus_session(corpus_dir, Strategy.TEXTUAL)
        for m in range(4):
            for k in range(2):
                from modix.declang import Need
                assert session.resolve(f"S{m}_{k}", Need.DEFINITION).succeeded
