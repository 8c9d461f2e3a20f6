from __future__ import annotations

import io

import pytest

from modix.bench import open_corpus_session, write_corpus
from modix.declang import parse_statement
from modix.errors import ParseError
from modix.interp import FailReason, eval, format_result, repl, run_script
from modix.loader import Strategy


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


class TestStatements:
    def test_new_resolves_definition(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        result = _eval(session, "new A;")
        assert result.ok and result.value is None
        assert result.stats_delta.modules_loaded == 1

    def test_declare_pointer_to_unknown_fails(self, sized_corpus):
        result = _eval(_session(sized_corpus), "declare p: ptr<Unknown>;")
        assert not result.ok and result.fail_reason is FailReason.NOT_FOUND

    def test_declare_builtin_needs_no_resolution(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        result = _eval(session, "declare n: i64;")
        assert result.ok
        assert result.stats_delta.lookups == 0

    def test_call_needs_forward_only(self, sized_corpus):
        result = _eval(_session(sized_corpus), "call mk;")
        assert result.ok

    def test_echo_is_canonical(self, sized_corpus):
        result = _eval(_session(sized_corpus), "new   A ;")
        assert result.echo == "new A;"


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
        results = run_script(_session(sized_corpus), ".stats\n")
        assert len(results) == 1
        assert results[0].stats_delta.lookups == 0

    def test_quit_stops_evaluation(self, sized_corpus):
        results = run_script(_session(sized_corpus), "new A;\n.quit\nnew B;\n")
        assert [r.echo for r in results] == ["new A;"]

    def test_comments_and_blanks_skipped(self, sized_corpus):
        results = run_script(_session(sized_corpus), "\n// hi\nnew A;\n\n")
        assert [r.echo for r in results] == ["new A;"]

    def test_parse_error_carries_script_line(self, sized_corpus):
        with pytest.raises(ParseError) as excinfo:
            run_script(_session(sized_corpus), "new A;\nnew ;\n")
        assert excinfo.value.line == 2

    def test_deltas_sum_to_final_minus_startup(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        startup = session.stats()
        results = run_script(
            session, "new A;\nsizeof(B);\ncall mk;\ndeclare p: ptr<A>;\nsizeof(Nope);\n"
        )
        final = session.stats()
        for field in ("modules_loaded", "decls_deserialized", "bytes_read",
                      "sim_memory_bytes", "ticks", "lookups"):
            total = sum(getattr(r.stats_delta, field) for r in results)
            assert total == getattr(final, field) - getattr(startup, field), field

    def test_script_loads_bounded_by_resolutions(self, sized_corpus):
        session = _session(sized_corpus, Strategy.SEMANTIC_GMI)
        run_script(session, "new A;\nnew B;\nsizeof(Color);\n")
        assert session.stats().modules_loaded <= 3


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
