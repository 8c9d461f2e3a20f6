"""The `modix` command line.

Subcommands: `compile` headers per a module map into `.pcm` files, `pch` to
merge them, `index` to build a global index, `validate` to check index
staleness, `run` for a script or REPL session, and `bench` for the strategy
comparison harness.

Exit codes: 0 success, 1 usage error, 2 corpus/ODR/staleness error (a file
that cannot be read, or a text input missing or not UTF-8, named by its path).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

from . import bench as bench_mod
from . import gmi as gmi_mod
from . import modfile
from .declang import parse_header  # noqa: F401 -- kept for perfbench/spans.py to wrap
from .errors import MissingIndex, ModixError
from .gmi import IndexFlavor, Staleness
from .interp import format_result, iter_script, repl
from .loader import CostModel, Strategy, open_session
from .modulemap import FINAL_MAP_NAME, Overlay, SearchPaths, load_modulemap, parse_overlay
from .modulemap import read_text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        raise _UsageError(message)


def _strategy(value: str) -> Strategy:
    try:
        return Strategy(value)
    except ValueError:
        choices = ", ".join(s.value for s in Strategy)
        raise _UsageError(f"unknown strategy '{value}' (choose from: {choices})")


def _cost_model(pairs: list[str]) -> CostModel:
    fields = {f.name for f in dataclasses.fields(CostModel)}
    values: dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in fields:
            raise _UsageError(
                f"bad --cost '{pair}' (expected one of {sorted(fields)} as key=value)"
            )
        try:
            values[key] = int(value)
        except ValueError:
            raise _UsageError(f"bad --cost value in '{pair}' (integer required)")
    try:
        return CostModel(**values)
    except ValueError as exc:
        raise _UsageError(f"bad --cost: {exc}") from None


def _load_overlay(path: str | None) -> Overlay | None:
    if path is None:
        return None
    return parse_overlay(read_text(path))


def _cmd_compile(args: argparse.Namespace) -> int:
    module_map, _ = bench_mod.compile_tree(args.modulemap, args.out)
    print(f"compiled {len(module_map.defs)} modules into {Path(args.out)}")
    return 0


def _cmd_pch(args: argparse.Namespace) -> int:
    corpus = Path(args.dir)
    module_map = load_modulemap(corpus / FINAL_MAP_NAME)
    out = Path(args.out) if args.out else corpus / modfile.PCH_FILE_NAME
    release = modfile.fold_rows(modfile.read_modules(corpus, module_map.names))
    out.write_bytes(modfile.build_pch(release))
    print(f"wrote {out}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    corpus = Path(args.dir)
    map_path = corpus / FINAL_MAP_NAME
    module_map = load_modulemap(map_path)
    for name in args.exclude:
        if name not in module_map.names:
            raise ModixError(f"cannot exclude '{name}': no such module in {map_path}")
    indexed = modfile.read_modules(corpus, (n for n in module_map.names if n not in args.exclude))
    flavor = IndexFlavor.SEMANTIC if args.semantic else IndexFlavor.LEXICAL
    data = gmi_mod.build_index(module_map, modfile.fold_rows(indexed), flavor)
    out = Path(args.out) if args.out else corpus / gmi_mod.index_file_name(flavor)
    out.write_bytes(data)
    print(f"wrote {out} ({flavor.name.lower()}, {len(data)} bytes)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = Path(args.dir)
    index_paths = [Path(args.index) if args.index else corpus / gmi_mod.INDEX_FILE_NAME]
    if not args.index:
        index_paths.append(corpus / gmi_mod.LEXICAL_INDEX_FILE_NAME)
    statuses: dict[str, Staleness] = {}  # a module is fresh only if every index finds it so
    stale: list[Path] = []
    digests: dict[str, int | Staleness] = {}  # each module file is hashed once
    for index_path in index_paths:
        try:
            index, _ = gmi_mod.read_index(index_path)
        except MissingIndex:
            if index_path is index_paths[0]:
                raise
            continue  # the lexical index is checked only where there is one
        report = gmi_mod.validate_index(index, corpus, digests=digests)
        for name, status in report.statuses:
            if statuses.get(name, Staleness.FRESH) is Staleness.FRESH:
                statuses[name] = status
        if not report.all_fresh:
            stale.append(index_path)
    for name, status in statuses.items():
        print(f"{name}: {status.value}")
    for index_path in stale:
        print(f"index is stale: {index_path}", file=sys.stderr)
    if stale:
        return 2
    print(f"all {len(statuses)} modules fresh")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    strategy = _strategy(args.strategy)
    cost = _cost_model(args.cost)
    corpus = Path(args.dir)
    module_map = load_modulemap(corpus / FINAL_MAP_NAME)
    paths = SearchPaths(tuple(args.local), str(corpus))
    session = open_session(
        module_map,
        paths,
        strategy,
        cost=cost,
        index_path=args.index,
        allow_stale=args.allow_stale,
        overlay=_load_overlay(args.overlay),
    )
    if args.script:
        text = read_text(args.script)
        for result in iter_script(session, text):
            print(format_result(result))
        return 0
    repl(session)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    strategies = [_strategy(s) for s in args.strategies.split(",") if s]
    if not strategies:
        raise _UsageError("--strategies must name at least one strategy")
    cost = _cost_model(args.cost)
    if args.spec == "cmssw319":
        spec_text = (
            resources.files("modix.data").joinpath("cmssw319.spec").read_text("utf-8")
        )
        scenario = "cmssw319"
    else:
        spec_text = read_text(args.spec)
        scenario = Path(args.spec).stem
    try:
        spec = bench_mod.load_spec(spec_text)
    except ValueError as exc:
        raise ModixError(f"{args.spec}: {exc}") from None
    workload = read_text(args.workload)

    def run_in(corpus_dir: Path) -> list[bench_mod.BenchRow]:
        started = time.perf_counter()
        bench_mod.generate_corpus(spec, corpus_dir)
        rows = bench_mod.run_benchmark(corpus_dir, workload, strategies, cost, scenario)
        elapsed = time.perf_counter() - started
        print(f"# wall clock (informational only): {elapsed:.3f}s", file=sys.stderr)
        return rows

    if args.dir:
        rows = run_in(Path(args.dir))
    else:
        with tempfile.TemporaryDirectory(prefix="modix-bench-") as tmp:
            rows = run_in(Path(tmp))
    sys.stdout.write(bench_mod.emit_report(rows, args.format))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="modix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile headers per a module map")
    p.add_argument("modulemap", help="final module.modulemap file")
    p.add_argument("-o", "--out", required=True, help="output directory for .pcm files")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("pch", help="merge a corpus into __pch__.pcm")
    p.add_argument("dir", help="corpus directory")
    p.add_argument("-o", "--out", help="output file (default DIR/__pch__.pcm)")
    p.set_defaults(func=_cmd_pch)

    p = sub.add_parser("index", help="build the global module index")
    p.add_argument("dir", help="corpus directory")
    flavor = p.add_mutually_exclusive_group(required=True)
    flavor.add_argument("--semantic", action="store_true")
    flavor.add_argument("--lexical", action="store_true")
    p.add_argument("--exclude", action="append", default=[], metavar="MODULE")
    p.add_argument("-o", "--out", help="output file")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("validate", help="check the index against the corpus")
    p.add_argument("dir", help="corpus directory")
    p.add_argument("--index", help="index file (default DIR/modules.gmi, and "
                   "DIR/modules.lexical.gmi if present)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run a script or REPL session")
    p.add_argument("--strategy", required=True, metavar="S")
    p.add_argument("--dir", default=".", help="corpus directory (default .)")
    p.add_argument("--local", action="append", default=[], metavar="PATH",
                   help="local checkout root, highest precedence first")
    p.add_argument("--cost", action="append", default=[], metavar="K=V")
    p.add_argument("--index", help="index file override")
    p.add_argument("--allow-stale", action="store_true")
    p.add_argument("--overlay", help="path overlay file")
    p.add_argument("script", nargs="?", help="script file (omit for a REPL)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="compare strategies over a generated corpus")
    p.add_argument("--spec", required=True, help="scenario .spec file (or 'cmssw319')")
    p.add_argument("--workload", required=True, help="workload script file")
    p.add_argument("--strategies", required=True, help="comma-separated strategy names")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--dir", help="keep the generated corpus here")
    p.add_argument("--cost", action="append", default=[], metavar="K=V")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"modix: {exc}", file=sys.stderr)
        return 1
    except (ModixError, OSError) as exc:
        print(f"modix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
