from __future__ import annotations

import io

import pytest

from conftest import index_bytes
from modix.bench import compile_tree, open_corpus_session, write_corpus
from modix.declang import parse_header, parse_statement
from modix.errors import LexError, OdrViolation, ParseError
from modix.gmi import IndexFlavor
from modix.interp import FailReason, eval, format_result, iter_script, repl, run_script
from modix.loader import LoadStats, Session, Strategy
from modix.modfile import compile_module
from modix.modulemap import load_modulemap


@pytest.fixture
def sized_corpus(tmp_path):
    corpus_dir = tmp_path / "sized"
    write_corpus(
        corpus_dir,
        [
            (
                "Core",
                {
                    "t.dh": (
                        "struct A { x: i32; y: f64; };\n"
                        "struct B { a: A; p: ptr<A>; flag: bool; };\n"
                        "enum Color { red, green };\n"
                        "using AliasA = A;\n"
                        "using AliasAlias = AliasA;\n"
                        "using PtrA = ptr<A>;\n"
                        "fn mk() -> ptr<A>;\n"
                    )
                },
            ),
            (
                "Cyclic",
                {
                    "t.dh": (
                        "using Loop1 = Loop2;\n"
                        "using Loop2 = Loop1;\n"
                        "struct SelfRef { s: SelfRef2; };\n"
                        "struct SelfRef2 { s: SelfRef; };\n"
                    )
                },
            ),
        ],
    )
    return corpus_dir


def _session(corpus_dir, strategy=Strategy.PRELOAD_ALL):
    return open_corpus_session(corpus_dir, strategy)


def _eval(session, text):
    return eval(session, parse_statement(text))


class TestSizeof:
    def test_flat_struct(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(A);")
        assert result.ok and result.value == 12  # 4 + 8, no padding

    def test_nested_struct_with_pointer(self, sized_corpus):
        # a: A (12) + p: ptr<A> (8) + flag: bool (1)
        result = _eval(_session(sized_corpus), "sizeof(B);")
        assert result.ok and result.value == 21

    def test_enum_and_pointer_alias(self, sized_corpus):
        session = _session(sized_corpus)
        assert _eval(session, "sizeof(Color);").value == 4
        assert _eval(session, "sizeof(PtrA);").value == 8

    def test_alias_chain_resolves_transitively(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(AliasAlias);")
        assert result.ok and result.value == 12

    def test_alias_cycle_fails(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(Loop1);")
        assert not result.ok and result.fail_reason is FailReason.ALIAS_CYCLE

    def test_struct_membership_cycle_fails(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(SelfRef);")
        assert not result.ok and result.fail_reason is FailReason.ALIAS_CYCLE

    def test_unknown_name_fails(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(Nope);")
        assert not result.ok and result.fail_reason is FailReason.NOT_FOUND

    def test_function_is_not_sizeable(self, sized_corpus):
        result = _eval(_session(sized_corpus), "sizeof(mk);")
        assert not result.ok and result.fail_reason is FailReason.NOT_SIZEABLE

    def test_sizeof_agrees_across_strategies(self, sized_corpus):
        values = {
            strategy: _eval(_session(sized_corpus, strategy), "sizeof(B);").value
            for strategy in Strategy
        }
        assert set(values.values()) == {21}


def _compile_release(corpus_dir, headers):
    """Compile one `t.dh` per (module, text) into a release that breaks the
    ODR: `compile_tree` writes the module files, then its rootmap fold
    refuses the release.  Returns the module map."""
    corpus_dir.mkdir()
    map_file = corpus_dir / "module.modulemap"
    for name, text in headers:
        (corpus_dir / name).mkdir()
        (corpus_dir / name / "t.dh").write_text(text, "utf-8")
    map_file.write_text(
        "".join(f'module {name} {{ header "{name}/t.dh" }}\n' for name, _ in headers), "utf-8"
    )
    with pytest.raises(OdrViolation):
        compile_tree(map_file, corpus_dir)
    return load_modulemap(map_file)


class TestOneWinnerRule:
    """ODR merging, the semantic index and the rootmap rank kinds alike:
    struct or enum definition > function > alias > forward."""

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("using X = i32;", "struct X { a: i64; };", "ok 8"),
            ("using X = i32;", "fn X() -> i32;", "fail not-sizeable"),
            ("fn X() -> i32;", "struct X { a: i64; };", "ok 8"),
        ],
        ids=["alias-struct", "alias-function", "function-struct"],
    )
    def test_mixed_kind_name_agrees_across_strategies(self, tmp_path, first, second, expected):
        corpus_dir = tmp_path / "mixed"
        write_corpus(corpus_dir, [("M0", {"t.dh": first + "\n"}), ("M1", {"t.dh": second + "\n"})])
        results = {
            strategy: format_result(_eval(_session(corpus_dir, strategy), "sizeof(X);"))
            for strategy in Strategy
        }
        assert results == {strategy: expected for strategy in Strategy}

    @pytest.mark.parametrize(
        "where, rebuilt",
        [("local", "struct X;"), ("stale", "struct X;"), ("stale", "struct Y { b: i32; };")],
        ids=["local-forward", "stale-forward", "stale-without"],
    )
    def test_lower_ranked_kind_wins_once_the_top_one_is_out_of_reach(self, tmp_path, where, rebuilt):
        # The index marks DEFINES on M1's struct only.  A local checkout of
        # M1, or a release M1 rebuilt after indexing, no longer defines X, so
        # M0's alias wins, as preload-all reads the modules.
        corpus_dir = tmp_path / "release"
        write_corpus(
            corpus_dir, [("M0", {"t.dh": "using X = i32;\n"}), ("M1", {"t.dh": "struct X { a: i64; };\n"})]
        )
        target = tmp_path / "local" if where == "local" else corpus_dir
        target.mkdir(exist_ok=True)
        (target / "M1.pcm").write_bytes(compile_module("M1", [parse_header(rebuilt + "\n", "t.dh")]))
        local_roots = [str(target)] if where == "local" else []
        results = {
            strategy: format_result(_eval(
                open_corpus_session(corpus_dir, strategy, local_roots=local_roots, allow_stale=True),
                "sizeof(X);",
            ))
            for strategy in (Strategy.PRELOAD_ALL, Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI)
        }
        assert set(results.values()) == {"ok 4"}, results

    @pytest.mark.parametrize(
        "second", ["struct X { a: i64; };", "enum X { a, b };"], ids=["struct", "enum"]
    )
    def test_conflicting_definitions_fail_odr_violation(self, tmp_path, second):
        corpus_dir = tmp_path / "odr"
        module_map = _compile_release(corpus_dir, [("M0", "struct X { a: i32; };\n"), ("M1", second + "\n")])
        session = _session(corpus_dir, Strategy.PRELOAD_ALL)
        for text in ("sizeof(X);", "new X;"):
            assert format_result(_eval(session, text)) == "fail odr-violation", text
        with pytest.raises(OdrViolation, match="'X' has conflicting definitions in modules 'M0' and 'M1'"):
            index_bytes(module_map, corpus_dir, IndexFlavor.LEXICAL)


class TestStatements:
    def test_new_resolves_definition(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        before = session.stats()
        result = _eval(session, "new A;")
        assert result.ok and result.value is None
        assert (session.stats() - before).modules_loaded == 1

    def test_declare_pointer_to_unknown_fails(self, sized_corpus):
        result = _eval(_session(sized_corpus), "declare p: ptr<Unknown>;")
        assert not result.ok and result.fail_reason is FailReason.NOT_FOUND

    def test_declare_builtin_needs_no_resolution(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        before = session.stats()
        result = _eval(session, "declare n: i64;")
        assert result.ok
        assert (session.stats() - before).lookups == 0

    def test_call_needs_forward_only(self, sized_corpus):
        result = _eval(_session(sized_corpus), "call mk;")
        assert result.ok


class TestDirectives:
    def test_stats_snapshot_without_resolution(self, sized_corpus):
        session = _session(sized_corpus)
        result = _eval(session, ".stats")
        assert result.ok and "lookups=0" in result.output
        assert session.stats().lookups == 0

    def test_loaded_lists_load_order(self, sized_corpus):
        result = _eval(_session(sized_corpus), ".loaded")
        assert result.output.splitlines() == ["Core", "Cyclic"]

    def test_strategy_names_itself(self, sized_corpus):
        result = _eval(_session(sized_corpus, Strategy.PCH), ".strategy")
        assert result.output == "pch"


class TestRunScript:
    def test_empty_script(self, sized_corpus):
        assert run_script(_session(sized_corpus), "") == []

    def test_stats_only_script(self, sized_corpus):
        session = _session(sized_corpus)
        before = session.stats()
        results = run_script(session, ".stats\n")
        assert len(results) == 1
        assert (session.stats() - before).lookups == 0

    def test_quit_stops_evaluation(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        results = run_script(session, "new A;\n.quit\nnew B;\n")
        assert [format_result(r) for r in results] == ["ok"]
        assert session.stats().lookups == 1

    def test_comments_and_blanks_skipped(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        results = run_script(session, "\n// hi\nnew A;\n\n")
        assert [format_result(r) for r in results] == ["ok"]
        assert session.stats().lookups == 1

    def test_parse_error_carries_script_line(self, sized_corpus):
        with pytest.raises(ParseError) as excinfo:
            run_script(_session(sized_corpus), "new A;\nnew ;\n")
        assert excinfo.value.line == 2

    def test_parse_error_keeps_statement_column(self, sized_corpus):
        with pytest.raises(ParseError) as excinfo:
            run_script(_session(sized_corpus), "new A;\n\ndeclare p: ptr<A>>;\nnew B;\n")
        err = excinfo.value
        assert (err.line, err.col, str(err)) == (3, 18, "3:18: expected ';', got >")

    def test_lex_error_carries_script_line(self, sized_corpus):
        session = _session(sized_corpus)
        with pytest.raises(LexError) as excinfo:
            run_script(session, "new A;\n\nsizeof(S$);\nnew B;\n")
        err = excinfo.value
        assert (err.line, err.col, str(err)) == (3, 9, "3:9: invalid statement")
        assert session.stats().lookups == 1

    def test_deltas_sum_to_final_minus_startup(self, sized_corpus):
        """Each statement's costs, the snapshot after it less the one before,
        add up to what the script accrued: results stream as evaluated."""
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        startup = before = session.stats()
        deltas = []
        script = "new A;\nsizeof(B);\ncall mk;\ndeclare p: ptr<A>;\nsizeof(Nope);\n"
        for _ in iter_script(session, script):
            after = session.stats()
            deltas.append(after - before)
            before = after
        final = session.stats()
        assert len(deltas) == 5 and any(d.modules_loaded for d in deltas)
        for field in ("modules_loaded", "decls_deserialized", "bytes_read",
                      "headers_parsed", "sim_memory_bytes", "ticks", "lookups",
                      "false_positive_loads"):
            total = sum(getattr(d, field) for d in deltas)
            assert total == getattr(final, field) - getattr(startup, field), field
        loads = tuple(name for d in deltas for name in d.load_order)
        assert startup.load_order + loads == final.load_order

    def test_script_loads_bounded_by_resolutions(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        run_script(session, "new A;\nnew B;\nsizeof(Color);\n")
        assert session.stats().modules_loaded <= 3


class TestStatsDelta:
    def test_statements_take_no_full_snapshot(self, sized_corpus, monkeypatch):
        """A statement reads no stats snapshot and subtracts none; only the
        `.stats` and `.loaded` directives take one, once each."""
        subtractions = []
        snapshots = []
        original_sub, original_stats = LoadStats.__sub__, Session.stats

        def counting_sub(self, other):
            subtractions.append(other)
            return original_sub(self, other)

        def counting_stats(self):
            snapshots.append(self)
            return original_stats(self)

        monkeypatch.setattr(LoadStats, "__sub__", counting_sub)
        monkeypatch.setattr(Session, "stats", counting_stats)
        for strategy in Strategy:
            session = _session(sized_corpus, strategy)
            script = "new A;\nsizeof(B);\ncall mk;\ndeclare p: ptr<A>;\nsizeof(Nope);\n"
            results = run_script(session, script)
            assert len(results) == 5
            assert subtractions == [] and snapshots == [], strategy

            run_script(session, ".stats\n.loaded\n")
            assert subtractions == [] and snapshots == [session, session]
            snapshots.clear()


class TestRepl:
    def test_repl_round(self, sized_corpus):
        stdin = io.StringIO("sizeof(A);\n.strategy\nbogus $\n.quit\n")
        stdout = io.StringIO()
        repl(_session(sized_corpus), stdin, stdout)
        output = stdout.getvalue()
        assert "modix> " in output
        assert "ok 12" in output
        assert "preload-all" in output
        assert "parse error" in output or "error" in output

    def test_repl_skips_blank_and_comment_lines(self, sized_corpus):
        stdin = io.StringIO("\n   \n// a comment\nsizeof(A);\n")
        stdout = io.StringIO()
        repl(_session(sized_corpus), stdin, stdout)
        assert stdout.getvalue() == "modix> " * 4 + "ok 12\nmodix> \n"

    def test_repl_ends_on_eof(self, sized_corpus):
        stdin = io.StringIO("new A;\n")
        stdout = io.StringIO()
        repl(_session(sized_corpus), stdin, stdout)
        assert "ok" in stdout.getvalue()


class TestFormatResult:
    def test_variants(self, sized_corpus):
        session = _session(sized_corpus)
        assert format_result(_eval(session, "sizeof(A);")) == "ok 12"
        assert format_result(_eval(session, "new A;")) == "ok"
        assert format_result(_eval(session, "new Nope;")) == "fail not-found"
        assert format_result(_eval(session, ".strategy")) == "preload-all"
