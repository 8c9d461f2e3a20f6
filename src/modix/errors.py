"""Exception hierarchy shared by all modix components, and `reading`, the one
place where a corrupt file's error message gets its path."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class ModixError(Exception):
    """Base class for every error raised by this package."""


# --- source-text errors ---


class LexError(ModixError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ParseError(ModixError):
    def __init__(self, line: int, col: int, expected: str, got: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.got = got
        detail = f", got {got}" if got else ""
        super().__init__(f"{line}:{col}: expected {expected}{detail}")


class UnreadableFile(ModixError):
    """A file that cannot be read, or a text input missing or not UTF-8, named by path."""


class DuplicateDefinition(ModixError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate definition of '{name}' in one header")


# --- module file errors ---


class CorruptModule(ModixError):
    """A module file that cannot be trusted: bad framing, bounds, or hash."""


@contextmanager
def reading(path: object) -> Iterator[None]:
    """Decode a file's bytes inside this block: a CorruptModule raised there
    leaves with the file's path prefixed to its message, keeping its class,
    so the user can tell which file is damaged."""
    try:
        yield
    except CorruptModule as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class BadMagic(CorruptModule):
    pass


class BadVersion(CorruptModule):
    pass


class CorruptTable(CorruptModule):
    pass


class HashMismatch(CorruptModule):
    pass


class UnknownIdentifier(ModixError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"identifier '{name}' not present in module")


class OdrInModule(ModixError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"'{name}' defined differently by two headers of one module")


class OdrViolation(ModixError):
    def __init__(self, name: str, module_a: str, module_b: str):
        self.name = name
        self.module_a = module_a
        self.module_b = module_b
        super().__init__(
            f"'{name}' has conflicting definitions in modules '{module_a}' and '{module_b}'"
        )


# --- module map errors ---


class EmptyModule(ModixError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"module '{name}' declares no headers")


class DuplicateModule(ModixError):
    def __init__(self, name: str, file_a: str, file_b: str):
        self.name = name
        self.file_a = file_a
        self.file_b = file_b
        super().__init__(f"module '{name}' defined in both {file_a} and {file_b}")


class HeaderClaimedTwice(ModixError):
    def __init__(self, path: str, module_a: str, module_b: str):
        self.path = path
        self.module_a = module_a
        self.module_b = module_b
        super().__init__(
            f"header '{path}' claimed by modules '{module_a}' and '{module_b}'"
        )


class ModuleNotFound(ModixError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no module file found for '{name}'")


# --- index errors ---


class WrongFlavor(ModixError):
    pass


class IndexStale(ModixError):
    def __init__(self, stale_modules: tuple[str, ...]):
        self.stale_modules = stale_modules
        super().__init__(f"index is stale for modules: {', '.join(stale_modules)}")


# --- session startup errors ---


class MissingIndex(ModixError):
    pass


class MissingPch(ModixError):
    pass


class MissingRootmap(ModixError):
    pass


# --- reporting errors ---


class EmptyReport(ModixError):
    pass
