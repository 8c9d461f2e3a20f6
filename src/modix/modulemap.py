"""Module maps, virtual path overlays, and module file search paths.

A per-library map reads `module NAME { header "PATH" ... }`; a release
concatenates the per-library maps into one `module.modulemap`, which is where
module ids (0-based positions) live.  Overlays remap path prefixes the way a
virtual file system mount would, longest prefix first.  Search paths give
locally built module files precedence over the release area.

Everything here is read-only after construction and freely shareable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .declang import Token, TokenKind, tokenize
from .errors import (
    DuplicateModule,
    EmptyModule,
    HeaderClaimedTwice,
    ModuleNotFound,
    ParseError,
)

FINAL_MAP_NAME = "module.modulemap"
OVERLAY_NAME = "overlay.txt"


@dataclass(frozen=True)
class ModuleDef:
    name: str
    headers: tuple[str, ...]
    source_map_file: str


@dataclass(frozen=True)
class ModuleMap:
    """Concatenated release map; a module's id is its position."""

    defs: tuple[ModuleDef, ...]

    def module_id(self, name: str) -> int:
        return self._ids()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ids()

    def _ids(self) -> dict[str, int]:
        cached = getattr(self, "_id_cache", None)
        if cached is None:
            cached = {d.name: i for i, d in enumerate(self.defs)}
            object.__setattr__(self, "_id_cache", cached)
        return cached

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.defs)

    def header_owners(self) -> dict[str, str]:
        return {h: d.name for d in self.defs for h in d.headers}


def parse_modulemap(text: str, source_file: str = "<text>") -> list[ModuleDef]:
    """Parse one module map file; `//` comments allowed."""
    tokens = tokenize(text)
    pos = 0

    def peek() -> Token:
        return tokens[pos]

    def error(expected: str) -> ParseError:
        tok = peek()
        got = tok.text if tok.kind is not TokenKind.EOF else "end of input"
        return ParseError(tok.line, tok.col, expected, got)

    defs: list[ModuleDef] = []
    while peek().kind is not TokenKind.EOF:
        tok = peek()
        if tok.kind is not TokenKind.IDENT or tok.text != "module":
            raise error("'module'")
        pos += 1
        name_tok = peek()
        if name_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise error("module name")
        pos += 1
        brace = peek()
        if brace.kind is not TokenKind.PUNCT or brace.text != "{":
            raise error("'{'")
        pos += 1
        headers: list[str] = []
        while True:
            tok = peek()
            if tok.kind is TokenKind.PUNCT and tok.text == "}":
                pos += 1
                break
            if tok.kind is TokenKind.IDENT and tok.text == "header":
                pos += 1
                path_tok = peek()
                if path_tok.kind is not TokenKind.STRING:
                    raise error("header path string")
                if path_tok.text in headers:
                    raise ParseError(
                        path_tok.line,
                        path_tok.col,
                        "distinct header path",
                        path_tok.text,
                    )
                headers.append(path_tok.text)
                pos += 1
                continue
            raise error("'header' or '}'")
        if not headers:
            raise EmptyModule(name_tok.text)
        defs.append(ModuleDef(name_tok.text, tuple(headers), source_file))
    return defs


def concat_modulemaps(maps: Sequence[tuple[str, Sequence[ModuleDef]]]) -> ModuleMap:
    """Concatenate per-library maps in input order, assigning positional ids."""
    seen_modules: dict[str, str] = {}
    seen_headers: dict[str, str] = {}
    defs: list[ModuleDef] = []
    for source_file, file_defs in maps:
        for d in file_defs:
            if d.name in seen_modules:
                raise DuplicateModule(d.name, seen_modules[d.name], source_file)
            seen_modules[d.name] = source_file
            for h in d.headers:
                if h in seen_headers:
                    raise HeaderClaimedTwice(h, seen_headers[h], d.name)
                seen_headers[h] = d.name
            defs.append(ModuleDef(d.name, d.headers, source_file))
    return ModuleMap(tuple(defs))


def load_modulemap(path: str | Path) -> ModuleMap:
    """Read and concatenate a single (already final) module map file."""
    path = Path(path)
    return concat_modulemaps([(str(path), parse_modulemap(path.read_text("utf-8"), str(path)))])


# --- overlays ---


@dataclass(frozen=True)
class Overlay:
    """Ordered (virtual prefix -> real prefix) mappings; longest match wins."""

    mappings: tuple[tuple[str, str], ...] = ()

    def apply(self, path: str) -> str:
        best: tuple[str, str] | None = None
        for virtual, real in self.mappings:
            if path == virtual or path.startswith(virtual.rstrip("/") + "/"):
                if best is None or len(virtual) > len(best[0]):
                    best = (virtual, real)
        if best is None:
            return path
        virtual, real = best
        if path == virtual:
            return real
        return real.rstrip("/") + "/" + path[len(virtual.rstrip("/")) + 1:]


def apply_overlay(overlay: Overlay, path: str) -> str:
    return overlay.apply(path)


def parse_overlay(text: str) -> Overlay:
    """Lines of `VIRTUAL -> REAL`; blank lines and `#` comments ignored."""
    mappings: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ParseError(lineno, 1, "'VIRTUAL -> REAL' mapping", line)
        virtual, _, real = line.partition("->")
        virtual, real = virtual.strip(), real.strip()
        if not virtual or not real:
            raise ParseError(lineno, 1, "'VIRTUAL -> REAL' mapping", line)
        if virtual in seen:
            raise ParseError(lineno, 1, "distinct virtual path", virtual)
        seen.add(virtual)
        mappings.append((virtual, real))
    return Overlay(tuple(mappings))


# --- search paths ---


class Origin(Enum):
    LOCAL = "local"
    RELEASE = "release"


@dataclass(frozen=True)
class SearchPaths:
    """Local checkout roots (in precedence order) ahead of the release root."""

    local_roots: tuple[str, ...]
    release_root: str


def _module_file(root: str, module_name: str, overlay: Overlay | None) -> str | None:
    candidate = os.path.join(root, module_name + ".pcm")
    if overlay is not None:
        candidate = overlay.apply(candidate)
    return candidate if os.path.isfile(candidate) else None


def find_local_module(
    paths: SearchPaths, module_name: str, overlay: Overlay | None = None
) -> str | None:
    """First `<root>/<module_name>.pcm` under the local roots, or None.  With
    an overlay, candidates are remapped before the existence check; with no
    local roots, nothing is looked up."""
    for root in paths.local_roots:
        found = _module_file(root, module_name, overlay)
        if found is not None:
            return found
    return None


def resolve_module_path(
    paths: SearchPaths, module_name: str, overlay: Overlay | None = None
) -> tuple[str, Origin]:
    """`find_local_module`'s answer, else `<release_root>/<module_name>.pcm`."""
    found = find_local_module(paths, module_name, overlay)
    if found is not None:
        return found, Origin.LOCAL
    found = _module_file(paths.release_root, module_name, overlay)
    if found is not None:
        return found, Origin.RELEASE
    raise ModuleNotFound(module_name)
