"""The modix benchmark: session open, statement throughput and release build
for all five lookup strategies, in wall-clock time and simulated cost.

    python3 perfbench/run.py --workload sweep-1k --seed 20 --seconds 10 --trace 0

One driver process (this one, standard library only) generates nothing
itself: every set-up, build and session runs in a fresh child process
(`worker.py`), one at a time, so one strategy's heap never shows in the next
one's timings.  The driver checks every answer against the independent
reference in `reference.py` and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one untraced
and one traced round and reports the per-layer metrics, the simulated
counts and the tracing overhead instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Evaluator, make_script, read_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR_NAME = ".perfbench_work"

STRATEGIES = ("preload-all", "pch", "textual", "lexical-gmi", "semantic-gmi")
GMI = ("lexical-gmi", "semantic-gmi")
LOADING = ("preload-all", "pch") + GMI  # strategies that read module files

# The ROADMAP baseline corpus; the seed comes from --seed.
BASELINE_1K = {
    "n_modules": 1000,
    "defs_per_module": 4,
    "fwd_fanout": 4,
    "dup_fraction": 0.6,
    "import_density": 1.0,
}

DEFAULT_SEED = 20
SETUPS = 2  # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 3  # session rounds per untraced run, however short --seconds is
MAX_ROUNDS = 40
DEADLINE_S = 170  # a run that cannot finish by then exits without a result


@dataclass(frozen=True)
class Workload:
    corpus: dict | str  # CorpusSpec fields, or the name of a bundled spec
    script_length: int
    hot_modules: int  # 0: names drawn from every module
    build_every_round: bool  # else one build per run


WORKLOADS = {
    "sweep-1k": Workload(BASELINE_1K, 1000, 0, False),
    "hot-1k": Workload(BASELINE_1K, 5000, 20, False),
    "rebuild-cmssw319": Workload("cmssw319", 1000, 0, True),
}


def _catalog() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of every end-to-end and every per-layer metric."""
    end_to_end = [("setup_s", "s")]
    end_to_end += [(f"open_ms.{s}", "ms") for s in STRATEGIES]
    end_to_end += [(f"stmts_per_s.{s}", "stmt/s") for s in STRATEGIES]
    end_to_end += [("build_s", "s"), ("peak_rss_mb", "MiB")]

    # Traced metric -> (unit, strategies); combinations that are always zero
    # are left out.
    traced = {
        "declang.self_s.run": ("s", STRATEGIES),
        "declang.headers_parsed": ("count", ("textual",)),
        "modfile.self_s.open": ("s", ("preload-all", "pch")),
        "modfile.self_s.run": ("s", STRATEGIES),
        "modfile.summaries_read": ("count", LOADING),
        "modfile.decls_decoded": ("count", LOADING),
        "hash.self_s.open": ("s", LOADING),
        "hash.self_s.run": ("s", GMI),
        "hash.bytes": ("B", LOADING),
        "hash.bytes_per_charged_byte": ("ratio", LOADING),
        "modulemap.self_s": ("s", STRATEGIES),
        "gmi.self_s.open": ("s", GMI),
        "gmi.self_s.run": ("s", GMI),
        "loader.self_s.open": ("s", STRATEGIES),
        "loader.self_s.run": ("s", STRATEGIES),
        "loader.stats_self_s": ("s", STRATEGIES),
        "loader.cached_resolve_ratio": ("ratio", STRATEGIES),
        "interp.self_s.run": ("s", STRATEGIES),
    }
    untraced = {
        "loader.startup_ticks": ("ticks", STRATEGIES),
        "loader.wl_ticks": ("ticks", STRATEGIES[1:]),
        "loader.sim_memory_bytes": ("B", STRATEGIES),
        "loader.modules_loaded": ("count", LOADING),
        "loader.false_positive_loads": ("count", GMI),
        "rss_mb": ("MiB", STRATEGIES),
        "interp.stmt_p50_us": ("us", STRATEGIES),
        "interp.stmt_p99_us": ("us", STRATEGIES),
    }
    per_layer = [
        (f"{base}.{s}", unit)
        for table in (traced, untraced)
        for base, (unit, strategies) in table.items()
        for s in strategies
    ]
    per_layer += [
        (f"{layer}.self_s.build", "s")
        for layer in ("declang", "modfile", "hash", "gmi", "modulemap", "cli")
    ]
    per_layer += [("hash.bytes.build", "B"), ("trace.overhead_ratio", "ratio")]
    return end_to_end, per_layer


class RunFailed(Exception):
    """The run cannot produce a result."""


class Driver:
    def __init__(self, workload_name: str, seed: int, seconds: int, trace: bool, work: Path):
        self.name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.builds: list[dict] = []
        self.sessions: dict[tuple[str, bool], list[dict]] = {}
        self.digests: dict[str, str] = {}
        self.peak_rss_mb: list[float] = []  # one per build or session child
        self.opens: dict[str, list[dict]] = {}  # opens without a script run

    # -- children --

    def _child(self, job: dict) -> dict | None:
        """Run one worker; None (and a recorded problem) if it failed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"deadline of {DEADLINE_S}s passed")
        # A fixed hash seed gives every child the same set and dict layouts,
        # so their timings differ only by the work and the host.
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                # -S: the workers need no site-packages, and skipping them
                # saves a tenth of a second per child on a slow host.
                [sys.executable, "-S", str(HERE / "worker.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                timeout=remaining,
                env=env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{job['kind']} job passed the {DEADLINE_S}s deadline") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
            self.problems.append(f"{job['kind']} job exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    # -- phases --

    def setup(self) -> Path:
        """Generate the corpus SETUPS times (once when tracing); keep the first."""
        trees = [self.work / f"corpus{i}" for i in range(1 if self.trace else SETUPS)]
        for tree in trees:
            result = self._child(
                {"kind": "setup", "corpus": self.workload.corpus, "seed": self.seed, "dir": str(tree)}
            )
            if result is None:
                raise RunFailed("corpus generation failed: " + self.problems[-1])
            self.setup_s.append(result["setup_s"])
            self.setup_wall_s.append(result["wall_s"])
            if not self.digests:
                self.digests = result["digests"]
            elif result["digests"] != self.digests:
                self.problems.append("two set-ups with one seed generated different artifacts")
        for tree in trees[1:]:
            shutil.rmtree(tree)
        return trees[0]

    def build(self, tree: Path, trace: bool) -> None:
        self.attempted += 1
        result = self._child({"kind": "build", "dir": str(tree), "trace": trace})
        if result is None:
            self.failed += 1
            return
        modules = sum(1 for n in self.digests if n.endswith(".pcm") and n != "__pch__.pcm")
        fault = None
        if result["codes"] != [0] * 5:
            fault = f"build exit codes {result['codes']}"
        elif result["validate_last_line"] != f"all {modules} modules fresh":
            fault = f"validate reported {result['validate_last_line']!r}"
        elif result["digests"] != self.digests:
            fault = "rebuilt artifacts differ from the generated corpus"
        if fault:
            self.failed += 1
            self.problems.append(fault)
        result["trace"] = trace
        self.builds.append(result)
        self.peak_rss_mb.append(result["peak_rss_mb"])

    def session(self, tree: Path, script: Path, expected: list[str], strategy: str, trace: bool) -> None:
        result = self._child(
            {
                "kind": "session",
                "dir": str(tree),
                "script": str(script),
                "strategy": strategy,
                "scenario": self.name,
                "trace": trace,
                "repeat": not self.trace,
            }
        )
        if result is None:
            self.attempted += 1 + len(expected)  # the open, then each statement
            self.failed += 1 + len(expected)
            return
        self.peak_rss_mb.append(result["peak_rss_mb"])
        for repetition in result["repetitions"]:
            self.attempted += 1 + len(expected)
            outputs = repetition.pop("outputs")
            wrong = [i for i, (got, want) in enumerate(zip(outputs, expected)) if got != want]
            wrong += range(len(outputs), len(expected))
            if wrong:
                self.failed += len(wrong)
                i = wrong[0]
                got = outputs[i] if i < len(outputs) else "(missing)"
                self.problems.append(
                    f"{strategy}: {len(wrong)} answers differ from the reference, "
                    f"first at statement {i + 1}: got {got!r}, want {expected[i]!r}"
                )
            repetition["outputs_sha256"] = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
            repetition["peak_rss_mb"] = result["peak_rss_mb"]
            self.sessions.setdefault((strategy, trace), []).append(repetition)
        self.attempted += len(result["extra_opens"])
        self.opens.setdefault(strategy, []).extend(result["extra_opens"])

    def measure(self) -> None:
        tree = self.setup()
        corpus = read_corpus(tree)
        lines = make_script(corpus, self.seed, self.workload.script_length, self.workload.hot_modules)
        evaluator = Evaluator(corpus)
        expected = [evaluator.expect(line) for line in lines]
        script = self.work / "script.dscript"
        script.write_text("\n".join(lines) + "\n", "utf-8")

        if self.trace:
            for traced in (False, True):
                self.build(tree, traced)
                for strategy in STRATEGIES:
                    self.session(tree, script, expected, strategy, traced)
            return
        start = time.monotonic()
        rounds = 0
        while rounds < MIN_ROUNDS or (
            rounds < MAX_ROUNDS and time.monotonic() - start < self.seconds
        ):
            if rounds == 0 or self.workload.build_every_round:
                self.build(tree, False)
            # Rotate the order so no strategy always follows the same one.
            for i in range(len(STRATEGIES)):
                self.session(tree, script, expected, STRATEGIES[(i + rounds) % len(STRATEGIES)], False)
            rounds += 1

    # -- checks and metrics --

    def check_consistency(self) -> None:
        """Simulated counts must repeat exactly, traced or not, and all five
        strategies must give the same answers."""
        answers = set()
        for strategy in STRATEGIES:
            runs = self.sessions.get((strategy, False), []) + self.sessions.get((strategy, True), [])
            simulated = {
                json.dumps([r["startup"], r["final"], r["report"]], sort_keys=True) for r in runs
            }
            startups = {json.dumps(r["startup"], sort_keys=True) for r in runs + self.opens.get(strategy, [])}
            if len(simulated) > 1 or len(startups) > 1:
                self.problems.append(f"{strategy}: simulated counts differ between repetitions")
            answers |= {r["outputs_sha256"] for r in runs}
        if len(answers) > 1:
            self.problems.append("the strategies disagree on some answers")

    def _session_medians(self, strategy: str) -> tuple[int, int, float, float]:
        """Untraced open and script samples, and open_ms and stmts_per_s."""
        runs = self.sessions.get((strategy, False), [])
        opens = runs + self.opens.get(strategy, [])
        return (
            len(opens),
            len(runs),
            statistics.median(r["open_s"] * 1e3 for r in opens),
            statistics.median(self.workload.script_length / r["run_s"] for r in runs),
        )

    def end_to_end(self) -> dict[str, float]:
        metrics = {"setup_s": statistics.median(self.setup_s)}
        for strategy in STRATEGIES:
            _, _, open_ms, rate = self._session_medians(strategy)
            metrics[f"open_ms.{strategy}"] = open_ms
            metrics[f"stmts_per_s.{strategy}"] = rate
        metrics["build_s"] = statistics.median(b["build_s"] for b in self.builds)
        metrics["peak_rss_mb"] = max(self.peak_rss_mb)
        return metrics

    def per_layer(self) -> dict[str, float]:
        metrics: dict[str, float] = {}
        untraced_s = traced_s = 0.0
        for strategy in STRATEGIES:
            (plain,) = self.sessions[strategy, False]
            (traced,) = self.sessions[strategy, True]
            for base, value in traced["trace"].items():
                metrics[f"{base}.{strategy}"] = value
            report, final = plain["report"], plain["final"]
            metrics[f"loader.startup_ticks.{strategy}"] = int(report["startup_ticks"])
            metrics[f"loader.wl_ticks.{strategy}"] = int(report["wl_ticks"])
            metrics[f"loader.sim_memory_bytes.{strategy}"] = final["sim_memory_bytes"]
            metrics[f"loader.modules_loaded.{strategy}"] = final["modules_loaded"]
            metrics[f"loader.false_positive_loads.{strategy}"] = final["false_positive_loads"]
            metrics[f"rss_mb.{strategy}"] = plain["peak_rss_mb"]
            metrics[f"interp.stmt_p50_us.{strategy}"] = plain["stmt_p50_us"]
            metrics[f"interp.stmt_p99_us.{strategy}"] = plain["stmt_p99_us"]
            untraced_s += plain["open_s"] + plain["run_s"]
            traced_s += traced["open_s"] + traced["run_s"]
        plain_build, traced_build = sorted(self.builds, key=lambda b: b["trace"])
        for layer, value in traced_build["layers"].items():
            metrics[f"{layer}.self_s.build"] = value
        metrics["hash.bytes.build"] = traced_build["hash_bytes"]
        untraced_s += plain_build["build_s"]
        traced_s += traced_build["build_s"]
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        return metrics

    def report(self) -> None:
        """Both currencies side by side, one row per strategy, on standard
        output ahead of the JSON result."""
        columns = None
        for strategy in STRATEGIES:
            runs = self.sessions.get((strategy, False), [])
            if not runs:
                continue
            first = runs[0]
            if columns is None:
                columns = list(first["report"])
                print("opens  runs  open_ms  stmts_per_s  " + "  ".join(columns))
                print("(open_ms and stmts_per_s on the reference CPU; see gauge.py)")
            n_opens, n_runs, open_ms, rate = self._session_medians(strategy)
            print(
                f"{n_opens:5d} {n_runs:5d}  {open_ms:7.1f}  {rate:11.0f}  "
                + "  ".join(first["report"][c] for c in columns)
            )
        builds = [b for b in self.builds if not b["trace"]]
        sessions = [r for (_, traced), rs in self.sessions.items() if not traced for r in rs]
        wall_s = sum(self.setup_wall_s) + sum(r["wall_s"] for r in builds + sessions)
        reference_s = (
            sum(self.setup_s)
            + sum(b["build_s"] for b in builds)
            + sum(r["open_s"] + r["run_s"] for r in sessions)
        )
        print(
            f"workload {self.name}, seed {self.seed}, script {self.workload.script_length} statements, "
            f"{len(self.setup_s)} set-ups, {len(builds)} untraced builds; untraced timed sections "
            f"took {wall_s:.2f} s of wall time, {reference_s:.2f} s on the reference CPU"
        )
        for problem in self.problems:
            print(f"problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modix" / "__init__.py").is_file():
        print(f"perfbench: no modix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / WORK_DIR_NAME).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / WORK_DIR_NAME))
    driver = Driver(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        driver.measure()
        driver.check_consistency()
        if not driver.sessions or not driver.builds:
            raise RunFailed("; ".join(driver.problems) or "nothing was measured")
        try:
            values = driver.per_layer() if args.trace else driver.end_to_end()
        except (KeyError, ValueError, statistics.StatisticsError) as exc:
            raise RunFailed(f"incomplete measurements ({exc!r}): {driver.problems}") from exc
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR_NAME).rmdir()
        except OSError:
            pass  # another run is using it

    end_to_end, per_layer = _catalog()
    units = dict(per_layer if args.trace else end_to_end)
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    driver.report()
    result = {
        "correct": not driver.problems and driver.failed == 0,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
