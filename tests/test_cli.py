from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import build_random_corpus
from modix.bench import CorpusSpec, generate_corpus
from modix.cli import main

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
        assert main(["compile", str(map_file), "-o", str(out)]) == 0
        assert main(["pch", str(out)]) == 2
        assert "conflicting definitions" in capsys.readouterr().err
