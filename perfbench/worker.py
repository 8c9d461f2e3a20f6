"""One measured process of the benchmark: a corpus set-up, a release build,
or one strategy's session.

Reads a JSON job on stdin and prints one JSON result on stdout.  modix is
imported from the checkout's `src/` and driven only through its public API:
`bench.generate_corpus`, `bench.open_corpus_session`, `interp.run_script`,
`Session.stats`, `bench.emit_report` and `cli.main`.  With `"trace": true`
the span wrappers of `spans.py` are installed before any timed work.

Run by `run.py`; by hand: `echo '<job json>' | python3 perfbench/worker.py`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent

# Build outputs inside a header tree; everything else in it is source.
ARTIFACT_SUFFIXES = (".pcm", ".gmi", ".rootmap")

# A session child repeats open + script while the repetitions so far and the
# next one are expected to fit in this much reference time; on the 1k corpus
# only pch repeats.  Then it opens more fresh sessions, without a script,
# while the opens are expected to fit in OPEN_BUDGET_S.  Cheap strategies
# thus give more samples per process.
REPETITION_BUDGET_S = 0.8
MAX_REPETITIONS = 4
OPEN_BUDGET_S = 0.4
MAX_OPENS = 8


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _artifact_digests(tree: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tree.iterdir())
        if p.suffix in ARTIFACT_SUFFIXES
    }


def _spec(job: dict):
    from importlib import resources

    from modix import bench

    if job["corpus"] == "cmssw319":
        text = resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
        return dataclasses.replace(bench.load_spec(text), seed=job["seed"])
    return bench.CorpusSpec(**job["corpus"], seed=job["seed"])


def run_setup(job: dict, gauge: Gauge, tracer) -> dict:
    from modix import bench

    spec = _spec(job)
    out = Path(job["dir"])
    _, wall_s, setup_s = gauge.time(lambda: bench.generate_corpus(spec, out))
    return {"setup_s": setup_s, "wall_s": wall_s, "digests": _artifact_digests(out)}


def run_build(job: dict, gauge: Gauge, tracer) -> dict:
    """Delete the tree's artifacts, then compile, pch, both indexes and
    validate through `cli.main`, as a release build would."""
    from modix import cli

    tree = Path(job["dir"])
    for p in tree.iterdir():
        if p.suffix in ARTIFACT_SUFFIXES:
            p.unlink()
    modulemap = str(tree / "module.modulemap")
    steps = (
        ["compile", modulemap, "-o", str(tree)],
        ["pch", str(tree)],
        ["index", str(tree), "--semantic"],
        ["index", str(tree), "--lexical"],
        ["validate", str(tree)],
    )
    if tracer is not None:
        tracer.phase = "build"
    printed = io.StringIO()

    def build() -> list[int]:
        with contextlib.redirect_stdout(printed):
            return [cli.main(argv) for argv in steps]

    codes, wall_s, build_s = gauge.time(build)
    result = {
        "build_s": build_s,
        "wall_s": wall_s,
        "codes": codes,
        "validate_last_line": printed.getvalue().rstrip("\n").rsplit("\n", 1)[-1],
        "digests": _artifact_digests(tree),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = {
            layer: tracer.self_s(layer, "build")
            for layer in ("declang", "modfile", "hash", "gmi", "modulemap", "cli")
        }
        result["hash_bytes"] = tracer.hashed_bytes["build"]
    return result


def _stats(stats) -> dict:
    values = dataclasses.asdict(stats)
    order = values.pop("load_order")
    values["load_order_sha256"] = hashlib.sha256("\n".join(order).encode()).hexdigest()
    return values


def run_session(job: dict, gauge: Gauge, tracer) -> dict:
    """Run `_session`, then, if the job says `repeat`, more sessions and
    more bare opens within REPETITION_BUDGET_S and OPEN_BUDGET_S."""
    from modix import bench
    from modix.loader import Strategy

    strategy = Strategy(job["strategy"])
    script = Path(job["script"]).read_text("utf-8").splitlines()
    repetitions = [_session(job, strategy, script, gauge, tracer)]
    spent_s = repetitions[0]["open_s"] + repetitions[0]["run_s"]
    while job["repeat"] and len(repetitions) < MAX_REPETITIONS:
        n = len(repetitions)
        if spent_s * (n + 1) / n > REPETITION_BUDGET_S:
            break
        repetitions.append(_session(job, strategy, script, gauge, tracer))
        spent_s += repetitions[-1]["open_s"] + repetitions[-1]["run_s"]

    opens = [r["open_s"] for r in repetitions]
    extra_opens = []
    while job["repeat"] and len(opens) < MAX_OPENS:
        if sum(opens) * (len(opens) + 1) / len(opens) > OPEN_BUDGET_S:
            break
        session, _, open_s = gauge.time(lambda: bench.open_corpus_session(job["dir"], strategy))
        extra_opens.append({"open_s": open_s, "startup": _stats(session.stats())})
        opens.append(open_s)
        del session

    if tracer is not None:
        repetitions[0]["trace"] = _session_layers(tracer, repetitions[0]["final"]["bytes_read"])
    return {"repetitions": repetitions, "extra_opens": extra_opens, "peak_rss_mb": _peak_rss_mb()}


def _session(job: dict, strategy, script: list[str], gauge: Gauge, tracer) -> dict:
    """Open one fresh session, then run the script one statement at a time,
    as a REPL client would, timing each statement."""
    from modix import bench, interp

    if tracer is not None:
        tracer.phase = "open"
    session, open_wall_s, open_s = gauge.time(
        lambda: bench.open_corpus_session(job["dir"], strategy)
    )
    if tracer is not None:
        tracer.phase = "snapshot"
    startup = session.stats()

    if tracer is not None:
        tracer.phase = "run"
    outputs: list[str] = []
    latencies: list[float] = []

    def run() -> None:
        clock = time.perf_counter
        for line in script:
            start = clock()
            try:
                (evaluated,) = interp.run_script(session, line)
                output = interp.format_result(evaluated)
            except Exception as exc:  # a raising statement is a failed operation
                output = f"raised {type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            outputs.append(output)

    _, run_wall_s, run_s = gauge.time(run)
    speed = run_s / run_wall_s
    if tracer is not None:
        tracer.phase = "snapshot"
    final = session.stats()

    row = bench.BenchRow(
        scenario=job["scenario"],
        strategy=strategy.value,
        startup=startup,
        workload=final - startup,
        total_ticks=final.ticks,
        sim_memory_bytes=final.sim_memory_bytes,
    )
    header, values = bench.emit_report([row], "csv").splitlines()
    return {
        "open_s": open_s,
        "run_s": run_s,
        "wall_s": open_wall_s + run_wall_s,
        "stmt_p50_us": statistics.median(latencies) * speed * 1e6,
        "stmt_p99_us": statistics.quantiles(latencies, n=100)[98] * speed * 1e6,
        "outputs": outputs,
        "startup": _stats(startup),
        "final": _stats(final),
        "report": dict(zip(header.split(","), values.split(","))),
    }


def _session_layers(tracer, charged_bytes: int) -> dict:
    s = tracer.self_s
    resolves = tracer.calls["resolve"]
    hashed = tracer.hashed_bytes["open"] + tracer.hashed_bytes["run"]
    return {
        "declang.self_s.run": s("declang", "run"),
        "declang.headers_parsed": tracer.calls["parse_header"],
        "modfile.self_s.open": s("modfile", "open"),
        "modfile.self_s.run": s("modfile", "run"),
        "modfile.summaries_read": tracer.calls["read_module_summary"],
        "modfile.decls_decoded": tracer.calls["deserialize_decl"],
        "hash.self_s.open": s("hash", "open"),
        "hash.self_s.run": s("hash", "run"),
        "hash.bytes": hashed,
        "hash.bytes_per_charged_byte": hashed / charged_bytes if charged_bytes else 0.0,
        "modulemap.self_s": s("modulemap"),
        "gmi.self_s.open": s("gmi", "open"),
        "gmi.self_s.run": s("gmi", "run"),
        "loader.self_s.open": s("loader", "open"),
        "loader.self_s.run": s("loader", "run"),
        "loader.stats_self_s": s("loader", "run", "stats"),
        "loader.cached_resolve_ratio": (
            tracer.leaf_calls["resolve"] / resolves if resolves else 0.0
        ),
        "interp.self_s.run": s("interp", "run"),
    }


JOBS = {"setup": run_setup, "build": run_build, "session": run_session}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with Gauge() as gauge:
        result = JOBS[job["kind"]](job, gauge, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
