"""Module maps, virtual path overlays, and module file search paths.

A per-library map reads `module NAME { header "PATH" ... }`; a release
concatenates the per-library maps into one `module.modulemap`, which is where
module ids (0-based positions) live.  A compiled pattern parses well-formed
maps, and `declang`'s token `Cursor` the rest.  Overlays remap path prefixes
the way a virtual file system mount would, longest prefix first.  Search
paths give locally built module files precedence over the release area.

Everything here is read-only after construction and freely shareable.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .declang import NAME, WS, Cursor, TokenKind, tokenize
from .errors import (
    DuplicateModule,
    EmptyModule,
    HeaderClaimedTwice,
    ModuleNotFound,
    ParseError,
    UnreadableFile,
)
from .modfile import FILE_EXTENSION

FINAL_MAP_NAME = "module.modulemap"


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a user file; failing to read or decode it raises
    UnreadableFile, which names the path."""
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UnreadableFile(f"cannot read {path}: {reason}") from exc


@dataclass(frozen=True)
class ModuleDef:
    name: str
    headers: tuple[str, ...]


@dataclass(frozen=True)
class ModuleMap:
    """Concatenated release map; a module's id is its position."""

    defs: tuple[ModuleDef, ...]

    def module_id(self, name: str) -> int:
        return self._ids[name]

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.defs)

    def header_owners(self) -> dict[str, str]:
        return {h: d.name for d in self.defs for h in d.headers}


# One well-formed `module NAME { header "PATH" ... }`; the name may be a
# keyword, as the Cursor allows.  Comments and empty modules do not match.
_MODULE = re.compile(
    rf'{WS}module[ \t\r\n]+(?P<name>{NAME}){WS}\{{(?P<body>(?:{WS}header{WS}"[^"\n]*")+){WS}\}}'
)


def parse_modulemap(text: str) -> list[ModuleDef]:
    """Parse one module map file; `//` comments allowed.  By pattern when
    well-formed, else (and for every error) with the token `Cursor`."""
    return _match_modulemap(text) or _parse_modulemap_tokens(text)


def _match_modulemap(text: str) -> list[ModuleDef] | None:
    """The modules `_MODULE` matches back to back, or None for the Cursor."""
    defs, pos = [], 0
    while m := _MODULE.match(text, pos):
        headers = tuple(m["body"].split('"')[1::2])  # paths hold no quote
        if len(set(headers)) != len(headers):
            return None
        defs.append(ModuleDef(m["name"], headers))
        pos = m.end()
    return None if text[pos:].strip(" \t\r\n") else defs


def _parse_modulemap_tokens(text: str) -> list[ModuleDef]:
    cur = Cursor(tokenize(text))
    defs: list[ModuleDef] = []
    while not cur.at_end():
        cur.expect(TokenKind.IDENT, "module")
        name_tok = cur.accept(TokenKind.IDENT) or cur.expect(
            TokenKind.KEYWORD, expected="module name"
        )
        cur.expect_punct("{")
        headers: list[str] = []
        while not cur.accept_punct("}"):
            cur.expect(TokenKind.IDENT, "header", "'header' or '}'")
            path_tok = cur.expect(TokenKind.STRING, expected="header path string")
            if path_tok.text in headers:
                raise cur.error("distinct header path", path_tok)
            headers.append(path_tok.text)
        if not headers:
            raise EmptyModule(name_tok.text)
        defs.append(ModuleDef(name_tok.text, tuple(headers)))
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
            defs.append(d)
    return ModuleMap(tuple(defs))


def load_modulemap(path: str | Path) -> ModuleMap:
    """Read and concatenate a single (already final) module map file."""
    path = Path(path)
    return concat_modulemaps([(str(path), parse_modulemap(read_text(path)))])


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


@dataclass(frozen=True)
class SearchPaths:
    """Local checkout roots (in precedence order) ahead of the release root."""

    local_roots: tuple[str, ...]
    release_root: str


def root_file(root: str | Path, name: str, overlay: Overlay | None = None) -> str:
    """`<root>/<name>` joined with `os.path.join`, then remapped by the
    overlay; every file under a search root is spelled this one way, so one
    overlay line matches all of them."""
    path = os.path.join(root, name)
    return overlay.apply(path) if overlay is not None else path


def _module_file(root: str, module_name: str, overlay: Overlay | None) -> str | None:
    candidate = root_file(root, module_name + FILE_EXTENSION, overlay)
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
) -> str:
    """`find_local_module`'s answer, else `<release_root>/<module_name>.pcm`."""
    found = find_local_module(paths, module_name, overlay) or _module_file(
        paths.release_root, module_name, overlay
    )
    if found is None:
        raise ModuleNotFound(module_name)
    return found
