"""The miniature declaration language and the interpreter statement language.

Headers (`.dh`) hold struct definitions, struct forward declarations, enums,
aliases, and function declarations.

A compiled pattern parses a well-formed statement in one match, and another
a well-formed header one item at a time, as `modulemap` does a module map.
Anything else (comments, keyword or non-ASCII names, unbalanced `ptr<`/`>`,
a name defined twice, errors) goes to the token `Cursor` over the one scanner
`tokenize`, which raises every `LexError`, `ParseError` and
`DuplicateDefinition`.

All functions here are pure over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

from .errors import DuplicateDefinition, LexError, ParseError

KEYWORDS = frozenset(
    {
        "include",
        "struct",
        "enum",
        "using",
        "fn",
        "ptr",
        "i32",
        "i64",
        "f64",
        "bool",
        # statement language
        "new",
        "declare",
        "sizeof",
        "call",
    }
)

BUILTIN_SIZES = {"i32": 4, "i64": 8, "f64": 8, "bool": 1}
POINTER_SIZE = 8
ENUM_SIZE = 4

# Shared by the scanner and the pattern parsers: skipped space, ASCII names.
WS = r"[ \t\r\n]*"
NAME = r"[A-Za-z_][A-Za-z0-9_]*"

# Whitespace and `//` comments, then one token: a `\w+` word (an error unless
# it starts with a letter or `_`), a one-line string, punctuation, or a single
# offending character.  Only at the end of input does no token group match.
_TOKEN = re.compile(
    rf'{WS}(?://[^\n]*{WS})*'
    r'(?:(?P<word>\w+)|(?P<string>"[^"\n]*")|(?P<punct>->|[{}();:,<>=])|(?P<bad>.))?',
    re.DOTALL,
)


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    PUNCT = "punct"
    STRING = "string"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """Scan UTF-8 text into tokens; `//` comments run to end of line."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    newline = source.find("\n")  # the first newline not yet counted, or -1
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        if 0 <= newline < start:
            line += source.count("\n", newline, start)
            line_start = source.rindex("\n", newline, start) + 1
            newline = source.find("\n", start)
        col = start - line_start + 1
        if kind is None:
            break
        text = m.group(kind)
        if kind == "word" and (text[0].isalpha() or text[0] == "_"):
            word_kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(word_kind, text, line, col))
        elif kind == "punct":
            tokens.append(Token(TokenKind.PUNCT, text, line, col))
        elif kind == "string":
            tokens.append(Token(TokenKind.STRING, text[1:-1], line, col))
        elif text == '"':
            raise LexError(line, col, "unterminated string literal")
        else:
            raise LexError(line, col, f"unexpected character {text[0]!r}")
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


# --- AST ---


class DeclKind(IntEnum):  # so per-kind tables hash it in C; never compare it with an int
    STRUCT_DEF = 1
    STRUCT_FWD = 2
    ENUM_DEF = 3
    ALIAS = 4
    FUNC_DECL = 5


class Need(Enum):
    DEFINITION = "definition"
    FORWARD_OK = "forward_ok"


@dataclass(frozen=True, slots=True)
class TypeRef:
    base: str
    indirection: int = 0

    @property
    def is_builtin(self) -> bool:
        return self.base in BUILTIN_SIZES


@dataclass(frozen=True, slots=True)
class StructField:
    name: str
    type: TypeRef


@dataclass(frozen=True, slots=True)
class Decl:
    """One parsed declaration."""

    name: str
    kind: DeclKind
    fields: tuple[StructField, ...] = ()
    enumerators: tuple[str, ...] = ()
    alias_target: TypeRef | None = None
    params: tuple[TypeRef, ...] = ()
    returns: TypeRef | None = None
    origin: tuple[str, int] = ("", 0)

    @property
    def is_forward(self) -> bool:
        return self.kind is DeclKind.STRUCT_FWD


@dataclass(frozen=True)
class HeaderAST:
    path: str
    items: tuple[Decl, ...]
    includes: tuple[str, ...]


# --- parsing ---


class Cursor:
    """Position in a token list: the one cursor behind the header, statement
    and module map parsers.  Errors name what was expected at the next token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.tokens[self.pos].kind is TokenKind.EOF

    def error(self, expected: str, tok: Token | None = None) -> ParseError:
        """A ParseError at `tok`, by default the next token."""
        if tok is None:
            tok = self.peek()
        got = tok.text if tok.kind is not TokenKind.EOF else "end of input"
        return ParseError(tok.line, tok.col, expected, got)

    def accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        """Consume and return the next token if it has this kind (and text)."""
        tok = self.tokens[self.pos]
        if tok.kind is kind and (text is None or tok.text == text):
            return self.next()
        return None

    def expect(self, kind: TokenKind, text: str | None = None, expected: str = "") -> Token:
        """`accept`, or raise an error expecting `expected` (default: the quoted text)."""
        tok = self.accept(kind, text)
        if tok is None:
            raise self.error(expected or f"'{text}'")
        return tok

    def expect_punct(self, text: str) -> Token:
        return self.expect(TokenKind.PUNCT, text)

    def accept_punct(self, text: str) -> bool:
        return self.accept(TokenKind.PUNCT, text) is not None

    def expect_ident(self) -> Token:
        return self.expect(TokenKind.IDENT, expected="identifier")


def _parse_type(cur: Cursor) -> TypeRef:
    if cur.accept(TokenKind.KEYWORD, "ptr"):
        cur.expect_punct("<")
        inner = _parse_type(cur)
        cur.expect_punct(">")
        return TypeRef(inner.base, inner.indirection + 1)
    tok = cur.peek()
    if tok.kind is TokenKind.IDENT or (
        tok.kind is TokenKind.KEYWORD and tok.text in BUILTIN_SIZES
    ):
        cur.next()
        return TypeRef(tok.text)
    raise cur.error("type")


def _parse_item(cur: Cursor, path: str) -> Decl | str:
    """Parse one header item; include directives come back as their path."""
    tok = cur.expect(TokenKind.KEYWORD, expected="declaration")
    origin = (path, tok.line)

    if tok.text == "include":
        target = cur.expect(TokenKind.STRING, expected="string literal")
        cur.expect_punct(";")
        return target.text

    if tok.text == "struct":
        name = cur.expect_ident().text
        if cur.accept_punct(";"):
            return Decl(name, DeclKind.STRUCT_FWD, origin=origin)
        cur.expect_punct("{")
        field_list: list[StructField] = []
        while not cur.accept_punct("}"):
            fname = cur.expect_ident().text
            cur.expect_punct(":")
            ftype = _parse_type(cur)
            cur.expect_punct(";")
            field_list.append(StructField(fname, ftype))
        cur.expect_punct(";")
        return Decl(name, DeclKind.STRUCT_DEF, fields=tuple(field_list), origin=origin)

    if tok.text == "enum":
        name = cur.expect_ident().text
        cur.expect_punct("{")
        enumerators = [cur.expect_ident().text]
        while cur.accept_punct(","):
            enumerators.append(cur.expect_ident().text)
        cur.expect_punct("}")
        cur.expect_punct(";")
        return Decl(name, DeclKind.ENUM_DEF, enumerators=tuple(enumerators), origin=origin)

    if tok.text == "using":
        name = cur.expect_ident().text
        cur.expect_punct("=")
        target = _parse_type(cur)
        cur.expect_punct(";")
        return Decl(name, DeclKind.ALIAS, alias_target=target, origin=origin)

    if tok.text == "fn":
        name = cur.expect_ident().text
        cur.expect_punct("(")
        param_list: list[TypeRef] = []
        if not cur.accept_punct(")"):
            param_list.append(_parse_type(cur))
            while cur.accept_punct(","):
                param_list.append(_parse_type(cur))
            cur.expect_punct(")")
        cur.expect_punct("->")
        returns = _parse_type(cur)
        cur.expect_punct(";")
        return Decl(
            name, DeclKind.FUNC_DECL, params=tuple(param_list), returns=returns, origin=origin
        )

    raise cur.error("declaration", tok)


# A `NAME` that is no keyword (an identifier), or none but a builtin (a type
# base); and a type slot as `_STATEMENT` and `_ITEM` match it: `ptr<` opens,
# a base and `>` closes, in three groups for `_type_ref`.
_IDENT, _BASE = (
    rf"(?!(?:{'|'.join(sorted(words))})(?![A-Za-z0-9_])){NAME}"
    for words in (KEYWORDS, KEYWORDS - BUILTIN_SIZES.keys())
)
_TYPE = rf"((?:{WS}ptr{WS}<)*){WS}({_BASE})((?:{WS}>)*)"


def _type_ref(opens: str, base: str, closes: str) -> TypeRef | None:
    """The type a matched slot names, or None if its `ptr<`/`>` counts differ."""
    depth = opens.count("<")
    return TypeRef(base, depth) if closes.count(">") == depth else None


# One well-formed header item and the space after it, without comments.  No
# keyword fills a name; `_match_header` declines unbalanced `ptr<` nests and
# a second definition of a name.
_FIELD = rf"{WS}({_IDENT}){WS}:{_TYPE}{WS};"
_ITEM = re.compile(
    rf'(?:include{WS}"(?P<include>[^"\n]*)"'
    rf"|struct[ \t\r\n]+(?P<struct>{_IDENT})(?:{WS}\{{(?P<fields>(?:{_FIELD})*){WS}\}})?"
    rf"|enum[ \t\r\n]+(?P<enum>{_IDENT}){WS}\{{"
    rf"(?P<enumerators>{WS}{_IDENT}(?:{WS},{WS}{_IDENT})*){WS}\}}"
    rf"|using[ \t\r\n]+(?P<alias>{_IDENT}){WS}=(?P<target>{_TYPE})"
    rf"|fn[ \t\r\n]+(?P<fn>{_IDENT}){WS}\((?P<signature>(?:{_TYPE}(?:{WS},{_TYPE})*)?{WS}\)"
    rf"{WS}->{_TYPE})"
    rf"){WS};{WS}"
)
_FIELDS = re.compile(_FIELD)
_SLOT = re.compile(_TYPE)
_WORD = re.compile(NAME)


def parse_header(source: str, path: str) -> HeaderAST:
    """Parse one header: by pattern when well-formed, else (and for every
    error) with the token `Cursor`."""
    return _match_header(source, path) or _parse_header_tokens(source, path)


def _match_header(source: str, path: str) -> HeaderAST | None:
    """The header `_ITEM` matches item after item, or None for the Cursor."""
    items: list[Decl] = []
    includes: list[str] = []
    defined: set[str] = set()  # names of the non-forward declarations so far
    line, last = 1, 0
    pos = len(source) - len(source.lstrip(" \t\r\n"))
    while m := _ITEM.match(source, pos):
        line += source.count("\n", last, pos)  # `pos` is the item's keyword
        last, pos = pos, m.end()
        include, name, body = m.group("include", "struct", "fields")
        if include is not None:
            includes.append(include)
            continue
        if name and body is None:
            items.append(Decl(name, DeclKind.STRUCT_FWD, origin=(path, line)))
            continue
        if name:
            fields = tuple(StructField(f, _type_ref(*slot)) for f, *slot in _FIELDS.findall(body))
            kind, parts, refs = DeclKind.STRUCT_DEF, {"fields": fields}, [f.type for f in fields]
        elif name := m["enum"]:
            kind, refs = DeclKind.ENUM_DEF, []
            parts = {"enumerators": tuple(_WORD.findall(m["enumerators"]))}
        else:
            refs = [_type_ref(*slot) for slot in _SLOT.findall(m["target"] or m["signature"])]
            if name := m["alias"]:
                kind, parts = DeclKind.ALIAS, {"alias_target": refs[0]}
            else:
                name, kind = m["fn"], DeclKind.FUNC_DECL
                parts = {"params": tuple(refs[:-1]), "returns": refs[-1]}
        if None in refs or name in defined:
            return None
        defined.add(name)
        items.append(Decl(name, kind, **parts, origin=(path, line)))
    return HeaderAST(path, tuple(items), tuple(includes)) if pos == len(source) else None


def _parse_header_tokens(source: str, path: str) -> HeaderAST:
    """A name may be forward-declared and defined in the same header (the
    definition wins later); two non-forward declarations of one name are
    rejected here."""
    cur = Cursor(tokenize(source))
    items: list[Decl] = []
    includes: list[str] = []
    declared: dict[str, DeclKind] = {}
    while not cur.at_end():
        item = _parse_item(cur, path)
        if isinstance(item, str):
            includes.append(item)
            continue
        prior = declared.get(item.name)
        if prior is not None and prior is not DeclKind.STRUCT_FWD and not item.is_forward:
            raise DuplicateDefinition(item.name)
        if prior is None or prior is DeclKind.STRUCT_FWD:
            declared[item.name] = item.kind
        items.append(item)
    return HeaderAST(path, tuple(items), tuple(includes))


# --- interpreter statements ---


@dataclass(frozen=True)
class NewStmt:
    name: str


@dataclass(frozen=True)
class DeclareStmt:
    var: str
    type: TypeRef


@dataclass(frozen=True)
class SizeOfStmt:
    name: str


@dataclass(frozen=True)
class CallStmt:
    name: str


@dataclass(frozen=True)
class DirectiveStmt:
    name: str


Statement = NewStmt | DeclareStmt | SizeOfStmt | CallStmt | DirectiveStmt

DIRECTIVES = frozenset({"stats", "loaded", "strategy", "quit"})


# A well-formed statement without comments, spaced as `_TOKEN` allows.  No
# keyword fills a name; `_match_statement` declines unbalanced `ptr<` nests.
_STATEMENT = re.compile(
    rf"{WS}(?:(?P<op>new|call)[ \t\r\n]+(?P<name>{_IDENT})"
    rf"|sizeof{WS}\({WS}(?P<sized>{_IDENT}){WS}\)"
    rf"|declare[ \t\r\n]+(?P<var>{_IDENT}){WS}:{_TYPE}){WS};{WS}"
)


def _match_statement(source: str) -> Statement | None:
    """The statement `_STATEMENT` matches, or None to leave it to the Cursor."""
    if not (m := _STATEMENT.fullmatch(source)):
        return None
    op, name, sized, var, opens, base, closes = m.groups()
    if sized is not None:
        return SizeOfStmt(sized)
    if name is not None:
        return (NewStmt if op == "new" else CallStmt)(name)
    ref = _type_ref(opens, base, closes)
    return None if ref is None else DeclareStmt(var, ref)


def parse_statement(source: str) -> Statement:
    """Parse one interpreter statement or `.directive` line: by pattern when
    well-formed, else (and for every error) with the token `Cursor`."""
    return _match_statement(source) or _parse_statement_tokens(source)


def _parse_statement_tokens(source: str) -> Statement:
    stripped = source.strip()
    if stripped.startswith("."):
        name = stripped[1:].strip()
        if name not in DIRECTIVES:
            raise ParseError(1, 1, "directive (.stats .loaded .strategy .quit)", stripped)
        return DirectiveStmt(name)

    cur = Cursor(tokenize(source))
    tok = cur.expect(TokenKind.KEYWORD, expected="statement")
    stmt: Statement
    if tok.text in ("new", "call"):
        stmt = (NewStmt if tok.text == "new" else CallStmt)(cur.expect_ident().text)
        cur.expect_punct(";")
    elif tok.text == "declare":
        var = cur.expect_ident().text
        cur.expect_punct(":")
        ref = _parse_type(cur)
        cur.expect_punct(";")
        stmt = DeclareStmt(var, ref)
    elif tok.text == "sizeof":
        cur.expect_punct("(")
        name = cur.expect_ident().text
        cur.expect_punct(")")
        cur.expect_punct(";")
        stmt = SizeOfStmt(name)
    else:
        raise cur.error("statement", tok)
    if not cur.at_end():
        raise cur.error("end of statement")
    return stmt


def resolution_request(stmt: Statement) -> tuple[str, Need] | None:
    """The (identifier, need) a statement asks name lookup for, if any."""
    if isinstance(stmt, (NewStmt, SizeOfStmt)):
        return (stmt.name, Need.DEFINITION)
    if isinstance(stmt, CallStmt):
        return (stmt.name, Need.FORWARD_OK)
    if isinstance(stmt, DeclareStmt):
        if stmt.type.is_builtin:
            return None
        need = Need.DEFINITION if stmt.type.indirection == 0 else Need.FORWARD_OK
        return (stmt.type.base, need)
    return None


# --- canonical rendering ---


def render_type(ref: TypeRef) -> str:
    text = ref.base
    for _ in range(ref.indirection):
        text = f"ptr<{text}>"
    return text


def render_decl(decl: Decl) -> str:
    if decl.kind is DeclKind.STRUCT_FWD:
        return f"struct {decl.name};"
    if decl.kind is DeclKind.STRUCT_DEF:
        body = " ".join(f"{f.name}: {render_type(f.type)};" for f in decl.fields)
        inner = f" {body} " if body else " "
        return f"struct {decl.name} {{{inner}}};"
    if decl.kind is DeclKind.ENUM_DEF:
        return f"enum {decl.name} {{ {', '.join(decl.enumerators)} }};"
    if decl.kind is DeclKind.ALIAS:
        return f"using {decl.name} = {render_type(decl.alias_target)};"
    params = ", ".join(render_type(p) for p in decl.params)
    return f"fn {decl.name}({params}) -> {render_type(decl.returns)};"


def render_statement(stmt: Statement) -> str:
    if isinstance(stmt, NewStmt):
        return f"new {stmt.name};"
    if isinstance(stmt, DeclareStmt):
        return f"declare {stmt.var}: {render_type(stmt.type)};"
    if isinstance(stmt, SizeOfStmt):
        return f"sizeof({stmt.name});"
    if isinstance(stmt, CallStmt):
        return f"call {stmt.name};"
    return f".{stmt.name}"


def render_header(ast: HeaderAST) -> str:
    """Canonical text: includes first, then one declaration per line, LF."""
    lines = [f'include "{inc}";' for inc in ast.includes]
    lines.extend(render_decl(decl) for decl in ast.items)
    return "\n".join(lines) + ("\n" if lines else "")
