"""Span wrappers installed around calls into each modix layer.

Each patch point is the name a caller actually looks up: loader, gmi, interp
and cli import functions directly, so the function is wrapped under every
module that holds a reference to it.  A span records its duration; a layer's
self time is the duration minus the time its child spans cover, computed from
the span stack as spans close.  Spans are aggregated as they close, per
(patch point, phase), so memory stays flat however long the run.

Only the traced run's worker processes install these, and they exit after
one job, so nothing is ever uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable

# (owner, attribute, layer).  The owner is a module or a class inside one.
PATCH_POINTS = (
    ("modix.loader", "parse_header", "declang"),
    ("modix.cli", "parse_header", "declang"),
    ("modix.interp", "parse_statement", "declang"),
    ("modix.modfile", "read_module_summary", "modfile"),
    ("modix.gmi", "read_module_summary", "modfile"),
    ("modix.modfile", "deserialize_decl", "modfile"),
    ("modix.loader", "merge_entities", "modfile"),
    ("modix.modfile", "merge_entities", "modfile"),
    ("modix.modfile", "compile_module", "modfile"),
    ("modix.modfile", "build_pch", "modfile"),
    ("modix.modfile", "fnv1a_64", "hash"),
    ("modix.gmi", "fnv1a_64", "hash"),
    ("modix.bench", "load_modulemap", "modulemap"),
    ("modix.cli", "load_modulemap", "modulemap"),
    ("modix.loader", "resolve_module_path", "modulemap"),
    ("modix.gmi", "load_index", "gmi"),
    ("modix.gmi", "build_index", "gmi"),
    ("modix.gmi", "validate_index", "gmi"),
    ("modix.loader", "validate_index", "gmi"),
    ("modix.gmi:GlobalIndex", "entry", "gmi"),
    ("modix.bench", "open_session", "loader"),
    ("modix.loader:Session", "resolve", "loader"),
    ("modix.loader:Session", "stats", "loader"),
    ("modix.interp", "run_script", "interp"),
    ("modix.interp", "eval", "interp"),
    ("modix.bench", "open_corpus_session", "bench"),
    ("modix.bench", "build_rootmap", "bench"),
    ("modix.cli", "main", "cli"),
)



class Tracer:
    """Aggregated spans of one process.  Set `phase` before each phase."""

    def __init__(self) -> None:
        self.phase = "open"
        self.self_ns: Counter[tuple[str, str, str]] = Counter()  # (layer, name, phase)
        self.calls: Counter[str] = Counter()
        self.leaf_calls: Counter[str] = Counter()  # spans that opened no child span
        self.hashed_bytes: Counter[str] = Counter()  # phase -> bytes
        # Each frame is [nanoseconds covered by child spans, has a child].
        self._stack: list[list] = [[0, False]]

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        hashes = name == "fnv1a_64"  # its first argument is the bytes hashed

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0, False]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] = True
                self.self_ns[layer, name, self.phase] += elapsed - frame[0]
                self.calls[name] += 1
                if not frame[1]:
                    self.leaf_calls[name] += 1
                if hashes:
                    self.hashed_bytes[self.phase] += len(args[0])

        return span

    def self_s(self, layer: str, phase: str | None = None, name: str | None = None) -> float:
        """Self time in seconds of a layer, optionally one phase or patch point."""
        return sum(
            ns
            for (l, n, p), ns in self.self_ns.items()
            if l == layer and (phase is None or p == phase) and (name is None or n == name)
        ) / 1e9

    def install(self) -> None:
        """Wrap every patch point."""
        for owner_path, attr, layer in PATCH_POINTS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            setattr(owner, attr, self.wrap(getattr(owner, attr), layer, attr))
