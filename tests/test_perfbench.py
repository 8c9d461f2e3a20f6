"""The traced benchmark wraps modix functions by name (`perfbench/spans.py`);
a name it cannot find makes `perfbench/run.py --trace 1` fail.  Every
benchmark session (`perfbench/worker.py`) also reads a few modix values
that nothing in modix reads itself."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SOURCES = Path(__file__).resolve().parent.parent / "src" / "modix"


def test_every_span_patch_point_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCH_POINTS
    for owner_path, attr, _layer in spans.PATCH_POINTS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_every_wrap_only_import_is_a_span_patch_point():
    """An import marked `# noqa: F401` in `src/modix` is kept only for
    `spans.py` to wrap under that module's name, so each must be a patch
    point.  Once the benchmark drops a patch point, this names the import to
    delete."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patched = {(owner, attr) for owner, attr, _layer in spans.PATCH_POINTS}
    unpatched = []
    for path in sorted(SOURCES.glob("*.py")):
        module = "modix" if path.stem == "__init__" else f"modix.{path.stem}"
        text = path.read_text("utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                names = (alias.asname or alias.name for alias in node.names)
                unpatched += [f"{path.name}:{node.lineno} {n}" for n in names if (module, n) not in patched]
    assert not unpatched, f"wrap-only imports that no patch point wraps: {unpatched}"


def test_parser_fast_paths_sit_under_their_patch_points():
    """`spans.py` wraps the statement, module map and header parsers under the
    names their callers use.  Those names must be the parsers themselves, so that
    time spent in either parse path is counted in its layer."""
    import modix.bench
    import modix.cli
    import modix.declang
    import modix.interp
    import modix.loader
    import modix.modulemap

    assert modix.interp.parse_statement is modix.declang.parse_statement
    assert modix.bench.load_modulemap is modix.cli.load_modulemap is modix.modulemap.load_modulemap
    assert modix.loader.parse_header is modix.declang.parse_header
    assert modix.bench.parse_header is modix.cli.parse_header is modix.declang.parse_header


def test_worker_api_contract(tmp_path):
    """`perfbench/worker.py` builds a `BenchRow` by these six keywords, flattens
    `Session.stats()` with `dataclasses.asdict` and subtracts one `LoadStats`
    from another; nothing in modix itself does all three.  It reads an
    evaluated statement only through `interp.format_result`."""
    import dataclasses

    from modix import bench, interp
    from modix.loader import LoadStats, Strategy

    bench.generate_corpus(bench.CorpusSpec(n_modules=3, fwd_fanout=1, seed=1), tmp_path)
    session = bench.open_corpus_session(tmp_path, Strategy.SEMANTIC_GMI)
    startup = session.stats()
    (evaluated,) = interp.run_script(session, "sizeof(S2_0);")
    assert interp.format_result(evaluated) == "ok 1"
    (evaluated,) = interp.run_script(session, "sizeof(Nope);")
    assert interp.format_result(evaluated) == "fail not-found"
    final = session.stats()

    workload = final - startup
    assert isinstance(workload, LoadStats) and workload.modules_loaded == 1
    assert workload.load_order == final.load_order[len(startup.load_order):]
    assert workload.ticks == final.ticks - startup.ticks

    values = dataclasses.asdict(final)
    assert values["load_order"] == final.load_order
    assert values["bytes_read"] == final.bytes_read

    row = bench.BenchRow(
        scenario="contract",
        strategy=Strategy.SEMANTIC_GMI.value,
        startup=startup,
        workload=workload,
        total_ticks=final.ticks,
        sim_memory_bytes=final.sim_memory_bytes,
    )
    header, line = bench.emit_report([row], "csv").splitlines()
    assert header.split(",") == list(bench.CSV_COLUMNS)
    assert line.split(",")[:2] == ["contract", "semantic-gmi"]


def test_traced_header_parses_match_headers_parsed(tmp_path, monkeypatch):
    """`declang.headers_parsed.textual` is the span count of the
    `loader.parse_header` patch point: each header a textual session parses
    passes through that name exactly once, memo and all."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import modix.loader
    from modix import bench, interp
    from modix.loader import Strategy

    spec = bench.CorpusSpec(n_modules=6, defs_per_module=2, fwd_fanout=2, dup_fraction=0.5, seed=3)
    bench.generate_corpus(spec, tmp_path)
    tracer = spans.Tracer()
    monkeypatch.setattr(
        modix.loader, "parse_header", tracer.wrap(modix.loader.parse_header, "declang", "parse_header")
    )
    session = bench.open_corpus_session(tmp_path, Strategy.TEXTUAL)
    results = interp.run_script(session, "sizeof(S0_0);\nnew S3_1;\ncall S5_0;\nsizeof(S2_1);\nsizeof(S0_0);")
    assert all(result.ok for result in results)
    assert tracer.calls["parse_header"] == session.stats().headers_parsed > 0
