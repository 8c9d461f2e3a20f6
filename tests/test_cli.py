from __future__ import annotations

import io
import random
from pathlib import Path

import pytest

from conftest import build_random_corpus, encode_blob
from modix import modfile
from modix.bench import CorpusSpec, generate_corpus, open_corpus_session, write_corpus
from modix.cli import main
from modix.declang import Decl, DeclKind, StructField, TypeRef
from modix.errors import IndexStale, MissingIndex, MissingPch, MissingRootmap, OdrViolation
from modix.gmi import load_index
from modix.interp import PROMPT
from modix.loader import INDEX_FLAVORS, Strategy
from modix.modulemap import load_modulemap

ARTIFACT_SUFFIXES = (".pcm", ".gmi", ".rootmap")


def _write_source_tree(root: Path):
    """Headers plus a final module map, ready for `modix compile`."""
    (root / "Gpad").mkdir(parents=True)
    (root / "Hist").mkdir()
    (root / "Gpad" / "gpad.dh").write_text(
        'include "Hist/hist.dh";\nstruct Gpad { h: Hist; };\n', "utf-8"
    )
    (root / "Hist" / "hist.dh").write_text("struct Hist { n: i64; };\n", "utf-8")
    map_file = root / "module.modulemap"
    map_file.write_text(
        'module Hist { header "Hist/hist.dh" }\n'
        'module Gpad { header "Gpad/gpad.dh" }\n',
        "utf-8",
    )
    return map_file


class TestWorkflow:
    def test_compile_pch_index_validate_run(self, tmp_path, capsys):
        map_file = _write_source_tree(tmp_path)
        out = tmp_path / "build"

        assert main(["compile", str(map_file), "-o", str(out)]) == 0
        assert (out / "Gpad.pcm").is_file() and (out / "Hist.pcm").is_file()

        assert main(["pch", str(out)]) == 0
        assert (out / "__pch__.pcm").is_file()

        assert main(["index", str(out), "--semantic"]) == 0
        assert main(["index", str(out), "--lexical"]) == 0
        assert (out / "modules.gmi").is_file()
        assert (out / "modules.lexical.gmi").is_file()

        assert main(["validate", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Gpad: fresh" in output and "all 2 modules fresh" in output

        script = tmp_path / "s.dscript"
        script.write_text("new Gpad;\nsizeof(Hist);\n.loaded\n", "utf-8")
        for strategy in ("preload-all", "pch", "semantic-gmi", "lexical-gmi"):
            assert main(
                ["run", "--strategy", strategy, "--dir", str(out), str(script)]
            ) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0] == "ok"
            assert lines[1] == "ok 8"

    def test_header_outside_its_module_directory(self, tmp_path, capsys):
        """A module's header need not sit under `<module>/`: the rootmap names
        the map path the header was compiled from, so textual reads it too."""
        (tmp_path / "inc").mkdir()
        (tmp_path / "inc" / "a.dh").write_text("struct X { a: i32; };\n", "utf-8")
        map_file = tmp_path / "module.modulemap"
        map_file.write_text('module A { header "inc/a.dh" }\n', "utf-8")
        for argv in (
            ["compile", str(map_file), "-o", str(tmp_path)], ["pch", str(tmp_path)],
            ["index", str(tmp_path), "--semantic"], ["index", str(tmp_path), "--lexical"],
        ):
            assert main(argv) == 0
        assert (tmp_path / "modules.rootmap").read_text("utf-8") == "X inc/a.dh\n"
        script = tmp_path / "s.dscript"
        script.write_text("sizeof(X);\n", "utf-8")
        capsys.readouterr()
        for strategy in Strategy:
            assert main(["run", "--strategy", strategy.value, "--dir", str(tmp_path), str(script)]) == 0
            assert capsys.readouterr() == ("ok 4\n", ""), strategy

    @pytest.mark.parametrize("shape", ["generated", "random"])
    def test_cli_rebuild_matches_generated_release(self, tmp_path, capsys, shape):
        tree = tmp_path / "tree"
        if shape == "generated":
            spec = CorpusSpec(
                n_modules=12, defs_per_module=2, fwd_fanout=3, dup_fraction=0.5,
                import_density=1.5, seed=3,
            )
            generate_corpus(spec, tree)
        else:
            build_random_corpus(random.Random(11), tree)
        generated = {
            p.name: p.read_bytes() for p in tree.iterdir() if p.suffix in ARTIFACT_SUFFIXES
        }
        for name in generated:
            (tree / name).unlink()
        for argv in (
            ["compile", str(tree / "module.modulemap"), "-o", str(tree)],
            ["pch", str(tree)],
            ["index", str(tree), "--semantic"],
            ["index", str(tree), "--lexical"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        rebuilt = {
            p.name: p.read_bytes() for p in tree.iterdir() if p.suffix in ARTIFACT_SUFFIXES
        }
        assert sorted(rebuilt) == sorted(generated)
        for name, data in generated.items():
            assert rebuilt[name] == data, name

    def test_run_reads_the_index_through_the_overlay(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7), corpus_dir)
        virtual = tmp_path / "not-there"
        overlay = tmp_path / "overlay.txt"
        overlay.write_text(f"{virtual} -> {corpus_dir}\n", "utf-8")
        script = tmp_path / "s.dscript"
        script.write_text("new S0_0;\n.loaded\n", "utf-8")
        argv = [
            "run", "--strategy", "semantic-gmi", "--dir", str(corpus_dir),
            "--index", str(virtual / "modules.gmi"), str(script),
        ]
        assert main(argv + ["--overlay", str(overlay)]) == 0
        assert capsys.readouterr().out.splitlines() == ["ok", "M0"]
        assert main(argv) == 2
        assert "index file not found" in capsys.readouterr().err

    def test_run_opens_through_open_corpus_session(self, tmp_path, capsys, monkeypatch):
        from modix import bench

        corpus_dir = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=3, fwd_fanout=1, seed=1), corpus_dir)
        virtual = tmp_path / "not-there"
        overlay = tmp_path / "overlay.txt"
        overlay.write_text(f"{virtual} -> {corpus_dir}\n", "utf-8")
        local = tmp_path / "local"
        local.mkdir()
        script = tmp_path / "s.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        opened = []
        open_corpus = bench.open_corpus_session

        def counted(*args, **kwargs):
            opened.append(open_corpus(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(bench, "open_corpus_session", counted)
        assert main([
            "run", "--strategy", "semantic-gmi", "--dir", str(corpus_dir), "--local", str(local),
            "--index", str(virtual / "modules.gmi"), "--allow-stale", "--overlay", str(overlay),
            "--cost", "bytes_per_tick=1", str(script),
        ]) == 0
        assert capsys.readouterr().out == "ok\n"
        (session,) = opened
        assert session.strategy is Strategy.SEMANTIC_GMI
        assert (session.paths.local_roots, session.paths.release_root) == ((str(local),), str(corpus_dir))
        assert session.overlay.mappings == ((str(virtual), str(corpus_dir)),)
        assert session.cost.bytes_per_tick == 1

    def test_run_reads_the_overlay_before_the_module_map(self, tmp_path, capsys):
        overlay = tmp_path / "overlay.txt"
        overlay.write_text("a ->\n", "utf-8")
        argv = ["run", "--strategy", "preload-all", "--dir", str(tmp_path / "no-corpus")]
        assert main(argv + ["--overlay", str(overlay)]) == 2
        assert capsys.readouterr().err == (
            "modix: error: 1:1: expected 'VIRTUAL -> REAL' mapping, got a ->\n"
        )
        overlay.write_text("a -> b\n", "utf-8")
        assert main(argv + ["--overlay", str(overlay)]) == 2
        map_path = tmp_path / "no-corpus" / "module.modulemap"
        assert capsys.readouterr().err == f"modix: error: cannot read {map_path}: no such file\n"

    def test_compile_derives_imports_from_includes(self, tmp_path):
        map_file = _write_source_tree(tmp_path)
        out = tmp_path / "build"
        main(["compile", str(map_file), "-o", str(out)])
        from modix.modfile import read_module_summary

        mf = read_module_summary((out / "Gpad.pcm").read_bytes())
        assert mf.imports == ("Hist",)

    def test_in_tree_compile_supports_textual(self, tmp_path, capsys):
        map_file = _write_source_tree(tmp_path)
        assert main(["compile", str(map_file), "-o", str(tmp_path)]) == 0
        assert (tmp_path / "modules.rootmap").is_file()
        capsys.readouterr()
        script = tmp_path / "s.dscript"
        script.write_text("sizeof(Gpad);\n", "utf-8")
        assert main(
            ["run", "--strategy", "textual", "--dir", str(tmp_path), str(script)]
        ) == 0
        assert capsys.readouterr().out.strip() == "ok 8"

    def test_run_textual_over_generated_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=3, defs_per_module=1, seed=1), corpus)
        script = tmp_path / "w.dscript"
        script.write_text("new S2_0;\n", "utf-8")
        assert main(["run", "--strategy", "textual", "--dir", str(corpus), str(script)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_run_with_cost_overrides(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        script = tmp_path / "w.dscript"
        script.write_text(".stats\n", "utf-8")
        assert main(
            [
                "run", "--strategy", "preload-all", "--dir", str(corpus),
                "--cost", "per_module_overhead_bytes=0",
                "--cost", "per_module_overhead_ticks=0",
                str(script),
            ]
        ) == 0
        assert "modules_loaded=2" in capsys.readouterr().out

    def test_run_with_local_checkout(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        local = tmp_path / "local"
        local.mkdir()
        from modix.declang import parse_header
        from modix.modfile import compile_module

        header = parse_header("struct S0_0 { a: i64; b: i64; c: i64; };", "types.dh")
        (local / "M0.pcm").write_bytes(compile_module("M0", [header]))
        script = tmp_path / "w.dscript"
        script.write_text("sizeof(S0_0);\n", "utf-8")
        assert main(
            [
                "run", "--strategy", "semantic-gmi", "--dir", str(corpus),
                "--local", str(local), str(script),
            ]
        ) == 0
        assert capsys.readouterr().out.strip() == "ok 24"

    @staticmethod
    def _checkout_without_s1_0(tmp_path):
        """Release M1 defines S1_0; its local rebuild keeps the imports and
        drops that definition."""
        from modix.declang import parse_header
        from modix.modfile import compile_module, read_module_summary

        corpus = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        local = tmp_path / "local"
        local.mkdir()
        imports = read_module_summary((corpus / "M1.pcm").read_bytes()).imports
        header = parse_header("struct Other { a: i32; };", "types.dh")
        (local / "M1.pcm").write_bytes(compile_module("M1", [header], imports))
        script = tmp_path / "w.dscript"
        script.write_text("sizeof(S1_0);\nsizeof(S0_0);\n", "utf-8")
        return corpus, ["run", "--strategy", "textual", "--dir", str(corpus),
                        "--local", str(local), str(script)]

    def test_textual_checkout_drops_a_removed_name(self, tmp_path, capsys):
        _, argv = self._checkout_without_s1_0(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["fail not-found", "ok 4"]

    def test_textual_checkout_without_the_lexical_index_exits_2(self, tmp_path, capsys):
        corpus, argv = self._checkout_without_s1_0(tmp_path)
        (corpus / "modules.lexical.gmi").unlink()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"modix: error: index file not found: {corpus / 'modules.lexical.gmi'}\n"


    def test_run_without_a_script_starts_the_repl(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        monkeypatch.setattr("sys.stdin", io.StringIO("new S0_0;\n.quit\n"))
        assert main(["run", "--strategy", "pch", "--dir", str(corpus)]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert out == f"{PROMPT}ok\n{PROMPT}"


class TestBenchCommand:
    def test_bench_csv(self, tmp_path, capsys):
        spec = tmp_path / "tiny.spec"
        spec.write_text("n_modules = 6\ndefs_per_module = 1\nfwd_fanout = 5\nseed = 7\n")
        workload = tmp_path / "w.dscript"
        workload.write_text("new S0_0;\n", "utf-8")
        assert main(
            [
                "bench", "--spec", str(spec), "--workload", str(workload),
                "--strategies", "pch,lexical-gmi,semantic-gmi", "--format", "csv",
            ]
        ) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("scenario,strategy,")
        assert len(lines) == 4

    def test_bench_keeps_corpus_with_dir(self, tmp_path, capsys):
        spec = tmp_path / "tiny.spec"
        spec.write_text("n_modules = 2\nseed = 1\n")
        workload = tmp_path / "w.dscript"
        workload.write_text("", "utf-8")
        corpus = tmp_path / "kept"
        assert main(
            [
                "bench", "--spec", str(spec), "--workload", str(workload),
                "--strategies", "pch", "--dir", str(corpus), "--format", "markdown",
            ]
        ) == 0
        assert (corpus / "module.modulemap").is_file()
        assert capsys.readouterr().out.startswith("| scenario")

    def test_cmssw319_csv_matches_golden(self, capsys):
        # Pins the simulated currency: a change that moves any simulated
        # column must say why and regenerate the golden with this command.
        data = Path(__file__).parent / "data"
        assert main(
            [
                "bench", "--spec", "cmssw319",
                "--workload", str(data / "cmssw319_workload.dscript"),
                "--strategies", "preload-all,pch,textual,lexical-gmi,semantic-gmi",
            ]
        ) == 0
        assert capsys.readouterr().out == (data / "cmssw319_bench.csv").read_text("utf-8")


class TestExitCodes:
    def test_usage_errors_exit_1(self, tmp_path, capsys):
        assert main(["run", "--strategy", "warp-drive", "--dir", str(tmp_path)]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["run"]) == 1  # missing --strategy
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=1, seed=1), corpus)
        assert main(
            ["run", "--strategy", "pch", "--dir", str(corpus), "--cost", "nope=1"]
        ) == 1
        capsys.readouterr()

    def test_out_of_range_cost_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=1, seed=1), corpus)
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        assert main([
            "run", "--strategy", "pch", "--dir", str(corpus),
            "--cost", "bytes_per_tick=-1", str(script),
        ]) == 1
        assert capsys.readouterr().err == "modix: bad --cost: bytes_per_tick must be >= 0\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_modules = abc", "line 1: 'n_modules' must be an integer, got 'abc'"),
            ("n_modules = 0", "line 1: n_modules must be >= 1"),
            ("seed = 3", "missing required field 'n_modules'"),
            ("# c\nn_modules = 4\n\nfwd_fanout = 4",
             "line 4: fwd_fanout must satisfy 0 <= fanout < n_modules"),
        ],
        ids=["n_modules = abc", "n_modules = 0", "seed = 3", "fwd_fanout = 4"],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, line, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(line + "\n", "utf-8")
        workload = tmp_path / "w.dscript"
        workload.write_text("new S0_0;\n", "utf-8")
        assert main([
            "bench", "--spec", str(spec), "--workload", str(workload),
            "--strategies", "pch",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"modix: error: {spec}: ")
        assert err.count("\n") == 1
        assert err == f"modix: error: {spec}: {message}\n"

    def test_non_integer_cost_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=1, seed=1), corpus)
        assert main([
            "run", "--strategy", "pch", "--dir", str(corpus), "--cost", "bytes_per_tick=x",
        ]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "modix: bad --cost value in 'bytes_per_tick=x' (integer required)\n"

    def test_bench_without_strategies_exits_1(self, tmp_path, capsys):
        workload = tmp_path / "w.dscript"
        workload.write_text("new S0_0;\n", "utf-8")
        assert main([
            "bench", "--spec", "cmssw319", "--workload", str(workload), "--strategies", ",",
        ]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "modix: --strategies must name at least one strategy\n"

    def test_missing_lexical_index_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        (corpus / "modules.lexical.gmi").unlink()
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        assert main(["run", "--strategy", "lexical-gmi", "--dir", str(corpus), str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"modix: error: index file not found: {corpus / 'modules.lexical.gmi'}\n"

    def test_validate_without_the_index_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        (corpus / "modules.gmi").unlink()
        assert main(["validate", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == f"modix: error: index file not found: {corpus / 'modules.gmi'}\n"

    def test_validate_without_the_lexical_index_checks_the_semantic_one(self, tmp_path, capsys):
        from modix.declang import parse_header
        from modix.modfile import compile_module

        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        (corpus / "modules.lexical.gmi").unlink()
        assert main(["validate", str(corpus)]) == 0
        assert capsys.readouterr() == ("M0: fresh\nM1: fresh\nall 2 modules fresh\n", "")
        header = parse_header("struct S1_0 { z: bool; };", "types.dh")
        (corpus / "M1.pcm").write_bytes(compile_module("M1", [header]))
        assert main(["validate", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert out == "M0: fresh\nM1: hash-mismatch\n"
        assert err == f"index is stale: {corpus / 'modules.gmi'}\n"

    def test_excluding_a_module_not_in_the_map_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        before = (corpus / "modules.gmi").read_bytes()
        argv = ["index", str(corpus), "--semantic", "--exclude", "M1"]
        assert main(argv + ["--exclude", "Typo"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        map_path = corpus / "module.modulemap"
        assert err == f"modix: error: cannot exclude 'Typo': no such module in {map_path}\n"
        assert (corpus / "modules.gmi").read_bytes() == before
        assert main(argv) == 0
        capsys.readouterr()
        assert load_index((corpus / "modules.gmi").read_bytes()).excluded == ("M1",)

    def test_index_of_the_other_flavor_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        assert main([
            "run", "--strategy", "lexical-gmi", "--dir", str(corpus),
            "--index", str(corpus / "modules.gmi"), str(script),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "modix: error: strategy lexical-gmi needs a lexical index, got semantic\n"

    def test_corpus_errors_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        (corpus / "__pch__.pcm").unlink()
        script = tmp_path / "w.dscript"
        script.write_text("", "utf-8")
        assert main(["run", "--strategy", "pch", "--dir", str(corpus), str(script)]) == 2
        capsys.readouterr()

    def test_stale_validate_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        from modix.declang import parse_header
        from modix.modfile import compile_module

        header = parse_header("struct S1_0 { z: bool; };", "types.dh")
        (corpus / "M1.pcm").write_bytes(compile_module("M1", [header]))
        assert main(["validate", str(corpus)]) == 2
        out = capsys.readouterr().out
        assert "M1: hash-mismatch" in out

    def test_validate_checks_the_lexical_index_too(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        from modix.declang import parse_header
        from modix.modfile import compile_module

        header = parse_header("struct S1_0 { z: bool; };", "types.dh")
        (corpus / "M1.pcm").write_bytes(compile_module("M1", [header]))
        assert main(["index", str(corpus), "--semantic"]) == 0
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        assert main(["run", "--strategy", "lexical-gmi", "--dir", str(corpus), str(script)]) == 2
        capsys.readouterr()

        assert main(["validate", str(corpus)]) == 2
        out, err = capsys.readouterr()
        assert out == "M0: fresh\nM1: hash-mismatch\n"
        assert err == f"index is stale: {corpus / 'modules.lexical.gmi'}\n"

        assert main(["index", str(corpus), "--lexical"]) == 0
        assert main(["validate", str(corpus)]) == 0
        assert capsys.readouterr().out.endswith("M1: fresh\nall 2 modules fresh\n")

    def test_validate_hashes_each_module_file_once(self, tmp_path, capsys, monkeypatch):
        from modix import gmi

        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=5, fwd_fanout=2, seed=1), corpus)
        hash_files = gmi.content_hashes
        hashed = []

        def counted(data):
            hashed.append(data)
            return hash_files(data)

        monkeypatch.setattr(gmi, "content_hashes", counted)
        assert main(["validate", str(corpus)]) == 0
        assert capsys.readouterr().out == "".join(
            f"M{m}: fresh\n" for m in range(5)
        ) + "all 5 modules fresh\n"
        assert sorted(hashed) == sorted((corpus / f"M{m}.pcm").read_bytes() for m in range(5))

    def test_validate_builds_no_posting(self, corpus12, capsys, monkeypatch):
        # Validation reads only the module rows of both indexes.
        from modix import gmi

        def refuse(*args):
            raise AssertionError("modix validate built a Posting")

        monkeypatch.setattr(gmi, "Posting", refuse)
        assert main(["validate", str(corpus12)]) == 0
        assert capsys.readouterr().out.endswith("all 12 modules fresh\n")

    def test_stale_index_blocks_run_unless_allowed(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        from modix.declang import parse_header
        from modix.modfile import compile_module

        header = parse_header("struct S1_0 { z: bool; };", "types.dh")
        (corpus / "M1.pcm").write_bytes(compile_module("M1", [header]))
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        args = ["run", "--strategy", "semantic-gmi", "--dir", str(corpus), str(script)]
        assert main(args) == 2
        assert main(args[:1] + ["--allow-stale"] + args[1:]) == 0
        capsys.readouterr()

    def test_deleted_module_blocks_run_before_any_statement(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7), corpus)
        (corpus / "M1.pcm").unlink()
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\n", "utf-8")
        args = ["run", "--strategy", "lexical-gmi", "--dir", str(corpus), str(script)]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "index is stale for modules: M1" in err

    def test_results_before_a_failing_statement_are_printed(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=6, defs_per_module=1, fwd_fanout=5, seed=7), corpus)
        script = tmp_path / "w.dscript"
        script.write_text("new S0_0;\nnew ;\n", "utf-8")
        assert main(["run", "--strategy", "pch", "--dir", str(corpus), str(script)]) == 2
        out, err = capsys.readouterr()
        assert out == "ok\n"
        assert "2:5: expected identifier" in err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        map_file = _write_source_tree(tmp_path / "src")
        (tmp_path / "src" / "Hist" / "hist.dh").write_bytes(b"struct Hist { n: i64; }; // \xff\n")
        assert main(["compile", str(map_file), "-o", str(tmp_path / "build")]) == 2
        assert "can't decode byte 0xff" in capsys.readouterr().err
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=1, seed=1), corpus)
        script = tmp_path / "w.dscript"
        script.write_bytes(b"new S0_0; // \xff\n")
        assert main(["run", "--strategy", "pch", "--dir", str(corpus), str(script)]) == 2
        assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_compile_names_a_non_utf8_header(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        generate_corpus(CorpusSpec(n_modules=2, seed=1), corpus)
        (corpus / "M1" / "types.dh").write_bytes(b"struct S1_0 { n: i64; }; // \xff\n")
        assert main(["compile", str(corpus / "module.modulemap"), "-o", str(tmp_path / "b")]) == 2
        assert "M1/types.dh" in capsys.readouterr().err

    def test_odr_conflict_exits_2(self, tmp_path, capsys):
        root = tmp_path / "src"
        (root / "A").mkdir(parents=True)
        (root / "B").mkdir()
        (root / "A" / "a.dh").write_text("struct X { x: i32; };\n", "utf-8")
        (root / "B" / "b.dh").write_text("struct X { x: i64; };\n", "utf-8")
        map_file = root / "module.modulemap"
        map_file.write_text(
            'module A { header "A/a.dh" }\nmodule B { header "B/b.dh" }\n', "utf-8"
        )
        out = tmp_path / "build"
        conflict = "modix: error: 'X' has conflicting definitions in modules 'A' and 'B'\n"
        assert main(["compile", str(map_file), "-o", str(out)]) == 2
        assert capsys.readouterr().err == conflict
        assert main(["pch", str(out)]) == 2
        assert capsys.readouterr().err == conflict

    def test_module_listed_twice_exits_2(self, tmp_path, capsys):
        root = tmp_path / "dup"
        (root / "A").mkdir(parents=True)
        (root / "A" / "a.dh").write_text("struct X { x: i32; };\n", "utf-8")
        (root / "A" / "b.dh").write_text("struct Y { y: i32; };\n", "utf-8")
        map_file = root / "module.modulemap"
        map_file.write_text(
            'module A { header "A/a.dh" }\nmodule A { header "A/b.dh" }\n', "utf-8"
        )
        assert main(["compile", str(map_file), "-o", str(tmp_path / "build")]) == 2
        assert capsys.readouterr().err == f"modix: error: module 'A' defined twice in {map_file}\n"


@pytest.fixture
def corpus12(tmp_path):
    corpus_dir = tmp_path / "corpus12"
    spec = CorpusSpec(
        n_modules=12, defs_per_module=3, fwd_fanout=3,
        dup_fraction=0.5, import_density=1.0, seed=7,
    )
    generate_corpus(spec, corpus_dir)
    return corpus_dir


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestCorruptArtifacts:
    """A damaged artifact exits 2 with a one-line error naming its file."""

    @pytest.mark.parametrize("strategy, file_name, extra", [
        ("pch", "__pch__.pcm", []),
        ("semantic-gmi", "modules.gmi", []),
        ("lexical-gmi", "modules.lexical.gmi", []),
        ("semantic-gmi", "M1.pcm", ["--allow-stale"]),
    ])
    def test_run_names_the_damaged_file(self, corpus12, tmp_path, capsys, strategy,
                                        file_name, extra):
        _truncate(corpus12 / file_name)
        script = tmp_path / "w.dscript"
        script.write_text("new S1_0;\nsizeof(S1_1);\nnew S1_2;\n", "utf-8")
        argv = ["run", "--strategy", strategy, "--dir", str(corpus12), *extra, str(script)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"modix: error: {corpus12 / file_name}: ")

    @pytest.mark.parametrize("argv, file_name", [
        (["validate"], "modules.gmi"),
        (["pch"], "M1.pcm"),
        (["index", "--semantic"], "M1.pcm"),
    ])
    def test_build_commands_name_the_damaged_file(self, corpus12, tmp_path, capsys, argv,
                                                  file_name):
        _truncate(corpus12 / file_name)
        out = ["-o", str(tmp_path / "out")] if argv[0] != "validate" else []
        assert main([argv[0], str(corpus12), *argv[1:], *out]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"modix: error: {corpus12 / file_name}: ")


class TestMapFreeRuns:
    """pch, textual and the index strategies without --local read only their
    artifact (an index also its modules' heads), so they run as before with
    no module map; a run with --local still reads the map."""

    SCRIPT = "new S1_0;\nsizeof(S1_1);\ndeclare x: ptr<S4_2>;\nsizeof(S9_0);\nnew Nope;\n.stats\n"

    @pytest.mark.parametrize("strategy", ["pch", "textual", "lexical-gmi", "semantic-gmi"])
    def test_run_prints_the_same_without_the_map(self, corpus12, tmp_path, capsys, strategy):
        script = tmp_path / "w.dscript"
        script.write_text(self.SCRIPT, "utf-8")
        argv = ["run", "--strategy", strategy, "--dir", str(corpus12), str(script)]
        assert main(argv) == 0
        intact = capsys.readouterr()
        assert "ok" in intact.out and intact.err == ""
        (corpus12 / "module.modulemap").unlink()
        assert main(argv) == 0
        assert capsys.readouterr() == intact

    @pytest.mark.parametrize("strategy", ["pch", "textual", "lexical-gmi", "semantic-gmi"])
    def test_local_run_without_the_map_exits_2(self, corpus12, tmp_path, capsys, strategy):
        script = tmp_path / "w.dscript"
        script.write_text(self.SCRIPT, "utf-8")
        (tmp_path / "local").mkdir()
        map_path = corpus12 / "module.modulemap"
        map_path.unlink()
        argv = ["run", "--strategy", strategy, "--dir", str(corpus12),
                "--local", str(tmp_path / "local"), str(script)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"modix: error: cannot read {map_path}: no such file\n"


class TestForeignBlob:
    """A hash-valid row whose blob declares another name is a corrupt
    module, not a crash in the merge."""

    @pytest.mark.parametrize("strategy, bad", [
        ("preload-all", "M1"), ("preload-all", "M0"), ("lexical-gmi", "M1"), ("semantic-gmi", "M0"),
    ])
    def test_run_exits_2(self, tmp_path, capsys, strategy, bad):
        corpus = tmp_path / "c"
        write_corpus(corpus, [
            ("M0", {"a.dh": "struct A { x: i32; };\n"}), ("M1", {"b.dh": "struct A { x: i32; };\n"}),
        ])
        b = Decl("B", DeclKind.STRUCT_DEF, fields=(StructField("x", TypeRef("i32")),), origin=("b.dh", 1))
        row = ("A", modfile.DeclFlags.HAS_DEFINITION, encode_blob(b))
        # The indexes are the healthy release's: every builder refuses the
        # foreign blob, whose payload differs from the other module's 'A'.
        (corpus / f"{bad}.pcm").write_bytes(modfile._emit(bad, (), [row]))
        for argv in (["pch"], ["index", "--semantic"], ["index", "--lexical"]):
            assert main([*argv, str(corpus), "-o", str(tmp_path / "out")]) == 2
            conflict = "'A' has conflicting definitions in modules 'M0' and 'M1'"
            assert capsys.readouterr().err == f"modix: error: {conflict}\n"
        script = tmp_path / "w.dscript"
        script.write_text("sizeof(A);\n", "utf-8")
        argv = ["run", "--strategy", strategy, "--dir", str(corpus), "--allow-stale", str(script)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err == f"modix: error: blob of 'A' in module '{bad}' declares 'B'\n"


class TestOdrBreakingRelease:
    """Every release builder refuses two modules that define one name
    differently, with the first conflict in module order; only the module
    files are left, so preload-all reports the conflict at the lookup and
    every other strategy fails to open."""

    @pytest.mark.parametrize("first, second", [
        ("struct X { a: i32; };", "struct X { a: i64; };"),
        ("enum X { a, b };", "enum X { a };"),
        ("using X = i32;", "using X = ptr<i32>;"),
        ("fn X() -> i32;", "fn X(i32) -> i32;"),
    ], ids=["struct", "enum", "alias", "function"])
    def test_every_builder_refuses_it(self, tmp_path, capsys, first, second):
        root = tmp_path / "src"
        for name, text in (("M0", first), ("M1", second)):
            (root / name).mkdir(parents=True)
            (root / name / "t.dh").write_text(text + "\n", "utf-8")
        map_file = root / "module.modulemap"
        map_file.write_text('module M0 { header "M0/t.dh" }\nmodule M1 { header "M1/t.dh" }\n', "utf-8")
        out = tmp_path / "build"
        conflict = "modix: error: 'X' has conflicting definitions in modules 'M0' and 'M1'\n"
        for argv in (
            ["compile", str(map_file), "-o", str(out)], ["pch", str(out)],
            ["index", str(out), "--semantic"], ["index", str(out), "--lexical"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == conflict, argv
        assert sorted(path.name for path in out.iterdir()) == ["M0.pcm", "M1.pcm", "module.modulemap"]

        module_map = load_modulemap(out / "module.modulemap")
        with pytest.raises(OdrViolation) as excinfo:
            modfile.fold_rows(modfile.read_modules(out, module_map.names))
        assert (excinfo.value.name, excinfo.value.module_a, excinfo.value.module_b) == ("X", "M0", "M1")

        script = tmp_path / "w.dscript"
        script.write_text("sizeof(X);\n", "utf-8")
        assert main(["run", "--strategy", "preload-all", "--dir", str(out), str(script)]) == 0
        assert capsys.readouterr().out == "fail odr-violation\n"
        missing = {"pch": MissingPch, "textual": MissingRootmap}
        for strategy in (Strategy.PCH, Strategy.TEXTUAL, *INDEX_FLAVORS):
            with pytest.raises(missing.get(strategy.value, MissingIndex)):
                open_corpus_session(out, strategy)

    def test_refused_compile_leaves_no_rootmap_of_the_last_build(self, tmp_path, capsys):
        """A tree compiled in place once, then edited to break the ODR: the
        refused compile removes the previous build's rootmap, so textual
        fails to open rather than read the new headers through the old map."""
        root = tmp_path / "src"
        for name, text in (("M0", "struct X { a: i32; };"), ("M1", "struct Y { b: i32; };")):
            (root / name).mkdir(parents=True)
            (root / name / "t.dh").write_text(text + "\n", "utf-8")
        map_file = root / "module.modulemap"
        map_file.write_text('module M0 { header "M0/t.dh" }\nmodule M1 { header "M1/t.dh" }\n', "utf-8")
        script = tmp_path / "w.dscript"
        script.write_text("sizeof(X);\n", "utf-8")
        run = ["run", "--strategy", "textual", "--dir", str(root), str(script)]
        assert main(["compile", str(map_file), "-o", str(root)]) == 0
        assert main(run) == 0
        capsys.readouterr()

        (root / "M1" / "t.dh").write_text("struct X { a: i64; };\n", "utf-8")
        assert main(["compile", str(map_file), "-o", str(root)]) == 2
        conflict = "'X' has conflicting definitions in modules 'M0' and 'M1'"
        assert capsys.readouterr().err == f"modix: error: {conflict}\n"
        assert not (root / "modules.rootmap").exists()
        assert main(run) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "modix: error: no modules.rootmap in the release root\n")

    def test_refused_compile_leaves_no_pch_of_the_last_build(self, tmp_path, capsys):
        """A full release build, then a compile refused for an ODR conflict:
        the refused compile removes the previous build's `__pch__.pcm`, so
        pch fails to open rather than answer from the old merge, while the
        indexes stay and are refused as stale."""
        root = tmp_path / "src"
        for name, text in (("M0", "struct X { a: i32; };"), ("M1", "struct Y { b: i32; };")):
            (root / name).mkdir(parents=True)
            (root / name / "t.dh").write_text(text + "\n", "utf-8")
        map_file = root / "module.modulemap"
        map_file.write_text('module M0 { header "M0/t.dh" }\nmodule M1 { header "M1/t.dh" }\n', "utf-8")
        out = tmp_path / "build"
        script = tmp_path / "w.dscript"
        script.write_text("sizeof(X);\n", "utf-8")
        run = ["run", "--strategy", "pch", "--dir", str(out), str(script)]
        for argv in (
            ["compile", str(map_file), "-o", str(out)], ["pch", str(out)],
            ["index", str(out), "--semantic"], ["index", str(out), "--lexical"],
        ):
            assert main(argv) == 0, argv
        assert main(run) == 0
        assert capsys.readouterr().out.endswith("ok 4\n")

        (root / "M1" / "t.dh").write_text("struct X { a: i64; };\n", "utf-8")
        assert main(["compile", str(map_file), "-o", str(out)]) == 2
        capsys.readouterr()
        assert not (out / modfile.PCH_FILE_NAME).exists()
        with pytest.raises(MissingPch):
            open_corpus_session(out, Strategy.PCH)
        assert main(run) == 2
        assert capsys.readouterr() == ("", "modix: error: no __pch__.pcm under the search paths\n")
        for strategy in INDEX_FLAVORS:
            with pytest.raises(IndexStale) as excinfo:
                open_corpus_session(out, strategy)
            assert excinfo.value.stale_modules == ("M1",)
