"""Statement evaluator and REPL over a loader session.

Statements exist solely to trigger name lookup with a chosen need; ``sizeof``
additionally walks the resolved definition (no padding, pointers are 8 bytes)
so that strategy differences would surface as value differences.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, TextIO

from .declang import (
    BUILTIN_SIZES,
    DeclKind,
    DirectiveStmt,
    ENUM_SIZE,
    Need,
    POINTER_SIZE,
    SizeOfStmt,
    Statement,
    TypeRef,
    parse_statement,
    resolution_request,
)
from .errors import LexError, OdrViolation, ParseError
from .loader import ResolutionOutcome, Session

PROMPT = "modix> "
SCRIPT_EXTENSION = ".dscript"
# Enum members read per statement, as plain names (see modfile's kind names).
_RESOLVED, _DEFINITION = ResolutionOutcome.RESOLVED, Need.DEFINITION
_STRUCT_DEF, _ENUM_DEF, _ALIAS = DeclKind.STRUCT_DEF, DeclKind.ENUM_DEF, DeclKind.ALIAS


class FailReason(Enum):
    NOT_FOUND = "not-found"
    ODR_VIOLATION = "odr-violation"
    ALIAS_CYCLE = "alias-cycle"
    NOT_SIZEABLE = "not-sizeable"


@dataclass(slots=True, unsafe_hash=True)
class EvalResult:
    ok: bool
    value: int | None = None
    fail_reason: FailReason | None = None
    output: str | None = None


class _EvalFail(Exception):
    def __init__(self, reason: FailReason):
        self.reason = reason
        super().__init__(reason.value)


def _size_of_type(session: Session, ref: TypeRef, expanding: set[str]) -> int:
    if ref.indirection > 0:
        return POINTER_SIZE
    if ref.is_builtin:
        return BUILTIN_SIZES[ref.base]
    return _size_of_name(session, ref.base, expanding)


def _size_of_name(session: Session, name: str, expanding: set[str]) -> int:
    if name in expanding:
        raise _EvalFail(FailReason.ALIAS_CYCLE)
    resolution = session.resolve(name, _DEFINITION)
    if resolution.outcome is not _RESOLVED:
        raise _EvalFail(FailReason.NOT_FOUND)
    decl = resolution.entity.decl
    expanding = expanding | {name}
    if decl.kind is _ENUM_DEF:
        return ENUM_SIZE
    if decl.kind is _STRUCT_DEF:
        return sum(_size_of_type(session, f.type, expanding) for f in decl.fields)
    if decl.kind is _ALIAS:
        return _size_of_type(session, decl.alias_target, expanding)
    raise _EvalFail(FailReason.NOT_SIZEABLE)


def _directive_output(session: Session, name: str) -> str:
    if name == "stats":
        s = session.stats()
        return (
            f"modules_loaded={s.modules_loaded} decls={s.decls_deserialized} "
            f"bytes_read={s.bytes_read} headers_parsed={s.headers_parsed} "
            f"sim_memory={s.sim_memory_bytes} ticks={s.ticks} "
            f"lookups={s.lookups} false_positives={s.false_positive_loads}"
        )
    if name == "loaded":
        order = session.stats().load_order
        return "\n".join(order) if order else "(no modules loaded)"
    if name == "strategy":
        return session.strategy.value
    return ""


def eval(session: Session, stmt: Statement) -> EvalResult:
    """Evaluate one parsed statement against the session."""
    if isinstance(stmt, DirectiveStmt):
        output = _directive_output(session, stmt.name) if stmt.name != "quit" else None
        return EvalResult(True, output=output)

    ok = True
    value: int | None = None
    reason: FailReason | None = None
    try:
        if isinstance(stmt, SizeOfStmt):
            value = _size_of_name(session, stmt.name, set())
        else:
            request = resolution_request(stmt)
            if request is not None:
                resolution = session.resolve(*request)
                if not resolution.succeeded:
                    raise _EvalFail(FailReason.NOT_FOUND)
    except _EvalFail as exc:
        ok, reason = False, exc.reason
    except OdrViolation:
        ok, reason = False, FailReason.ODR_VIOLATION

    return EvalResult(ok, value, reason)


def iter_script(session: Session, text: str) -> Iterator[EvalResult]:
    """Evaluate a script, one statement or directive per line, yielding each
    result as it is evaluated.

    Blank lines and `//` comments are skipped; `.quit` stops evaluation; the
    first parse error aborts with its script position.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        try:
            stmt = parse_statement(line)
        except ParseError as exc:
            raise ParseError(lineno, exc.col, exc.expected, exc.got) from None
        except LexError as exc:
            raise LexError(lineno, exc.col, "invalid statement") from None
        if isinstance(stmt, DirectiveStmt) and stmt.name == "quit":
            return
        yield eval(session, stmt)


def run_script(session: Session, text: str) -> list[EvalResult]:
    """All of `iter_script`'s results."""
    return list(iter_script(session, text))


def format_result(result: EvalResult) -> str:
    if result.output is not None:
        return result.output
    if not result.ok:
        return f"fail {result.fail_reason.value}"
    if result.value is not None:
        return f"ok {result.value}"
    return "ok"


def repl(session: Session, stdin: TextIO | None = None, stdout: TextIO | None = None) -> None:
    """Interactive loop; `.quit` or end of input leaves it.  The streams
    default to `sys.stdin` and `sys.stdout` as they are when it is called."""
    stdin, stdout = stdin or sys.stdin, stdout or sys.stdout
    while True:
        stdout.write(PROMPT)
        stdout.flush()
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            return
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        try:
            stmt = parse_statement(line)
        except (LexError, ParseError) as exc:
            stdout.write(f"parse error: {exc}\n")
            continue
        if isinstance(stmt, DirectiveStmt) and stmt.name == "quit":
            return
        result = eval(session, stmt)
        stdout.write(format_result(result) + "\n")
