"""The traced benchmark wraps modix functions by name (`perfbench/spans.py`);
a name it cannot find makes `perfbench/run.py --trace 1` fail.  Every
benchmark session (`perfbench/worker.py`) also reads a few modix values
that nothing in modix reads itself."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
    from another; nothing in modix itself does all three."""
    import dataclasses

    from modix import bench, interp
    from modix.loader import LoadStats, Strategy

    bench.generate_corpus(bench.CorpusSpec(n_modules=3, fwd_fanout=1, seed=1), tmp_path)
    session = bench.open_corpus_session(tmp_path, Strategy.SEMANTIC_GMI)
    startup = session.stats()
    (evaluated,) = interp.run_script(session, "sizeof(S2_0);")
    assert evaluated.ok
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
