from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_parse, single_edit
from modix.declang import (
    KEYWORDS,
    CallStmt,
    Decl,
    DeclareStmt,
    DeclKind,
    DirectiveStmt,
    HeaderAST,
    Need,
    NewStmt,
    SizeOfStmt,
    StructField,
    TypeRef,
    parse_header,
    parse_statement,
    render_decl,
    render_header,
    render_statement,
    resolution_request,
    tokenize,
    Token,
    TokenKind,
    _match_header,
    _match_statement,
    _parse_header_tokens,
    _parse_statement_tokens,
)
from modix.errors import DuplicateDefinition, LexError, ParseError

# --- the character-loop scanner `tokenize` replaced, kept as its reference ---

_PUNCT_TWO = ("->",)
_PUNCT_ONE = frozenset("{}();:,<>=")


def reference_tokenize(source: str) -> list[Token]:
    """Scan UTF-8 text into tokens; `//` comments run to end of line."""
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            advance(j - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise LexError(start_line, start_col, "unterminated string literal")
            tokens.append(Token(TokenKind.STRING, source[i + 1:j], start_line, start_col))
            advance(j + 1 - i)
            continue
        two = source[i:i + 2]
        if two in _PUNCT_TWO:
            tokens.append(Token(TokenKind.PUNCT, two, start_line, start_col))
            advance(2)
            continue
        if ch in _PUNCT_ONE:
            tokens.append(Token(TokenKind.PUNCT, ch, start_line, start_col))
            advance()
            continue
        raise LexError(start_line, start_col, f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


def _scan(scanner, source: str):
    """Tokens, or the (line, col, message) of the LexError raised."""
    try:
        return scanner(source)
    except LexError as exc:
        return (exc.line, exc.col, str(exc))


class TestTokenize:
    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert [t.kind for t in tokens] == [TokenKind.EOF]

    def test_minimal_forward_declaration(self):
        tokens = tokenize("struct Gpad;")
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.KEYWORD, "struct"),
            (TokenKind.IDENT, "Gpad"),
            (TokenKind.PUNCT, ";"),
            (TokenKind.EOF, ""),
        ]

    def test_comment_text_is_excluded(self):
        tokens = tokenize("x : ptr<T>; // c")
        assert [t.text for t in tokens] == ["x", ":", "ptr", "<", "T", ">", ";", ""]
        assert len(tokens) == 8

    def test_positions_are_one_based(self):
        tokens = tokenize("struct A;\nenum B { x };")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (1, 8)
        enum_tok = next(t for t in tokens if t.text == "enum")
        assert (enum_tok.line, enum_tok.col) == (2, 1)

    def test_crlf_is_accepted(self):
        assert [t.text for t in tokenize("struct A;\r\nstruct B;")] == [
            "struct", "A", ";", "struct", "B", ";", "",
        ]

    def test_arrow_is_one_token(self):
        tokens = tokenize("-> >")
        assert [t.text for t in tokens[:2]] == ["->", ">"]

    def test_bad_character_raises_with_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("struct A;\n  $")
        assert (excinfo.value.line, excinfo.value.col) == (2, 3)

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('include "oops')

    def test_lone_minus_rejected(self):
        with pytest.raises(LexError):
            tokenize("a - b")


# Letters that `isalpha` and `isalnum` disagree on (superscripts, fractions),
# whitespace the scanner rejects (NEL, no-break space), comments, strings,
# every punctuator and the lone `-` and `$` it rejects.
_SCANNER_ALPHABET = st.sampled_from(
    ["²", "½", "é", "\x85", "\xa0", " ", "\t", "\r", "\n", "//", "/", '"', "-", "->",
     "$", "_", "a", "Z", "ptr", "struct", *"0123456789", *"{}();:,<>="]
)


@given(st.lists(_SCANNER_ALPHABET, max_size=40).map("".join))
def test_tokenize_matches_character_loop_reference(source):
    assert _scan(tokenize, source) == _scan(reference_tokenize, source)


class TestParseHeader:
    def test_builtin_only_struct(self):
        ast = parse_header("struct A { x: i32; };", "a.dh")
        (decl,) = ast.items
        assert decl.kind is DeclKind.STRUCT_DEF
        assert decl.name == "A"

    def test_function_decl(self):
        ast = parse_header("fn f(A) -> ptr<B>;", "f.dh")
        (decl,) = ast.items
        assert decl.kind is DeclKind.FUNC_DECL

    def test_includes_recorded_and_excluded_from_items(self):
        ast = parse_header('include "x/y.dh";\nstruct A;\n', "a.dh")
        assert ast.includes == ("x/y.dh",)
        assert [d.name for d in ast.items] == ["A"]

    def test_origin_records_path_and_line(self):
        ast = parse_header("// lead\nstruct A;\nstruct B { };\n", "dir/a.dh")
        assert ast.items[0].origin == ("dir/a.dh", 2)
        assert ast.items[1].origin == ("dir/a.dh", 3)

    def test_duplicate_definition_rejected(self):
        with pytest.raises(DuplicateDefinition):
            parse_header("struct A { }; struct A { x: i32; };", "a.dh")
        with pytest.raises(DuplicateDefinition):
            parse_header("struct A { }; using A = i32;", "a.dh")

    def test_forward_plus_definition_is_fine(self):
        ast = parse_header("struct A; struct A { x: i32; }; struct A;", "a.dh")
        assert [d.kind for d in ast.items] == [
            DeclKind.STRUCT_FWD, DeclKind.STRUCT_DEF, DeclKind.STRUCT_FWD,
        ]

    def test_keyword_as_identifier_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_header("struct struct;", "a.dh")

    def test_enum_and_nested_ptr(self):
        ast = parse_header("enum E { a, b, c };\nusing P = ptr<ptr<E>>;", "e.dh")
        enum, alias = ast.items
        assert enum.enumerators == ("a", "b", "c")
        assert alias.alias_target == TypeRef("E", 2)

    def test_parse_error_carries_position_and_expected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_header("struct A {", "a.dh")
        assert excinfo.value.line == 1
        assert "identifier" in excinfo.value.expected or "'}'" in excinfo.value.expected


def _fwd(name: str, line: int = 1) -> Decl:
    return Decl(name, DeclKind.STRUCT_FWD, origin=("h.dh", line))


def _struct(name: str, *fields: tuple[str, TypeRef], line: int = 1) -> Decl:
    return Decl(
        name, DeclKind.STRUCT_DEF, fields=tuple(StructField(*f) for f in fields),
        origin=("h.dh", line),
    )


class TestHeaderBoundaries:
    """Exact values and errors at the edges of the header language."""

    @pytest.mark.parametrize(
        "source, items",
        [
            ("\n\nstruct A;\n\n\nstruct B { x: i32; };",
             [_fwd("A", 3), _struct("B", ("x", TypeRef("i32")), line=6)]),
            ("struct A;\r\nstruct B;\r\n\r\nenum E { a };",
             [_fwd("A"), _fwd("B", 2),
              Decl("E", DeclKind.ENUM_DEF, enumerators=("a",), origin=("h.dh", 4))]),
            ("\tstruct A;\n\t\tusing B = A;",
             [_fwd("A"), Decl("B", DeclKind.ALIAS, alias_target=TypeRef("A"),
                              origin=("h.dh", 2))]),
            ("// c\nstruct A;\n// d\n\nfn f() -> i32;",
             [_fwd("A", 2), Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i32"),
                                 origin=("h.dh", 5))]),
            ("struct S {};", [_struct("S")]),
            ("fn f() -> i32;",
             [Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i32"), origin=("h.dh", 1))]),
            ("enum E { a };",
             [Decl("E", DeclKind.ENUM_DEF, enumerators=("a",), origin=("h.dh", 1))]),
            ("struct T { p: ptr<S>; };", [_struct("T", ("p", TypeRef("S", 1)))]),
            ("fn f(ptr<S>) -> i32;",
             [Decl("f", DeclKind.FUNC_DECL, params=(TypeRef("S", 1),),
                   returns=TypeRef("i32"), origin=("h.dh", 1))]),
            ("using P = ptr<S>;",
             [Decl("P", DeclKind.ALIAS, alias_target=TypeRef("S", 1),
                   origin=("h.dh", 1))]),
            ("struct A { x: i32; }; struct A;", [_struct("A", ("x", TypeRef("i32"))), _fwd("A")]),
            ("", []),
            ("// only\n// comments\n", []),
        ],
    )
    def test_accepted(self, source, items):
        assert parse_header(source, "h.dh") == HeaderAST("h.dh", tuple(items), ())

    def test_pointer_deps_are_forward_ok(self):
        (decl,) = parse_header("struct T { p: ptr<S>; };", "h.dh").items
        assert decl.fields == (StructField("p", TypeRef("S", 1)),)

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("struct ptr;", ParseError, "1:8: expected identifier, got ptr"),
            ("struct S { f: ptr; };", ParseError, "1:18: expected '<', got ;"),
            ("using A = ptr<ptr>;", ParseError, "1:18: expected '<', got >"),
            ("struct A { }; struct A { };", DuplicateDefinition,
             "duplicate definition of 'A' in one header"),
            # The duplicate is raised before the later syntax error is reached.
            ("struct A { };\nstruct A { };\nstruct B {", DuplicateDefinition,
             "duplicate definition of 'A' in one header"),
        ],
    )
    def test_rejected(self, source, error, message):
        with pytest.raises(error) as excinfo:
            parse_header(source, "h.dh")
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


class TestParseStatement:
    def test_new(self):
        assert parse_statement("new Gpad;") == NewStmt("Gpad")

    def test_declare_ptr(self):
        stmt = parse_statement("declare x: ptr<Gpad>;")
        assert stmt == DeclareStmt("x", TypeRef("Gpad", 1))
        assert resolution_request(stmt) == ("Gpad", Need.FORWARD_OK)

    def test_declare_direct_needs_definition(self):
        stmt = parse_statement("declare x: Gpad;")
        assert resolution_request(stmt) == ("Gpad", Need.DEFINITION)

    def test_declare_builtin_needs_nothing(self):
        assert resolution_request(parse_statement("declare x: i64;")) is None

    def test_sizeof_and_call(self):
        assert parse_statement("sizeof(A);") == SizeOfStmt("A")
        assert resolution_request(SizeOfStmt("A")) == ("A", Need.DEFINITION)
        assert parse_statement("call f;") == CallStmt("f")
        assert resolution_request(CallStmt("f")) == ("f", Need.FORWARD_OK)

    def test_directives(self):
        assert parse_statement(".stats") == DirectiveStmt("stats")
        assert parse_statement("  .quit  ") == DirectiveStmt("quit")
        with pytest.raises(ParseError):
            parse_statement(".bogus")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("new A; new B;")

    def test_statement_render_round_trip(self):
        for text in ("new A;", "declare p: ptr<ptr<B>>;", "sizeof(C);", "call f;", ".loaded"):
            assert render_statement(parse_statement(text)) == text


class TestStatementBoundaries:
    """Exact values and errors at the edges of the statement language."""

    @pytest.mark.parametrize(
        "source, stmt",
        [
            ("declare p: ptr<i32>;", DeclareStmt("p", TypeRef("i32", 1))),
            ("sizeof(Ä1);", SizeOfStmt("Ä1")),
            ("new A; // c", NewStmt("A")),
        ],
    )
    def test_accepted(self, source, stmt):
        assert parse_statement(source) == stmt

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("new ptr;", ParseError, "1:5: expected identifier, got ptr"),
            ("declare sizeof: A;", ParseError, "1:9: expected identifier, got sizeof"),
            ("sizeof(i32);", ParseError, "1:8: expected identifier, got i32"),
            ("declare p: ptr<A>>;", ParseError, "1:18: expected ';', got >"),
            ("declare p: ptr<ptr<A>;", ParseError, "1:22: expected '>', got ;"),
            ("declare p: ptr;", ParseError, "1:15: expected '<', got ;"),
            ("declare p: ptr<ptr>;", ParseError, "1:19: expected '<', got >"),
            ("sizeof(A);\xa0", LexError, "1:11: unexpected character '\\xa0'"),
            ("call ²x;", LexError, "1:6: unexpected character '²'"),
        ],
    )
    def test_rejected(self, source, error, message):
        with pytest.raises(error) as excinfo:
            parse_statement(source)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


# --- property tests ---

_names = st.text(alphabet="abcdefgh", min_size=1, max_size=5).map(lambda s: "n_" + s)


def _types_over(words):
    return st.builds(
        TypeRef,
        base=st.one_of(st.sampled_from(("i32", "i64", "f64", "bool")), words),
        indirection=st.integers(min_value=0, max_value=2),
    )


_types = _types_over(_names)


@st.composite
def _decls(draw, name, words=_names):
    kind = draw(st.sampled_from(list(DeclKind)))
    types = _types_over(words)
    if kind is DeclKind.STRUCT_DEF:
        fields = tuple(
            StructField(draw(words), draw(types)) for _ in range(draw(st.integers(0, 3)))
        )
        return Decl(name, kind, fields=fields)
    if kind is DeclKind.STRUCT_FWD:
        return Decl(name, kind)
    if kind is DeclKind.ENUM_DEF:
        return Decl(name, kind, enumerators=tuple(draw(st.lists(words, min_size=1, max_size=3))))
    if kind is DeclKind.ALIAS:
        return Decl(name, kind, alias_target=draw(types))
    params = tuple(draw(types) for _ in range(draw(st.integers(0, 2))))
    return Decl(name, kind, params=params, returns=draw(types))


# The tokens of a rendered line: a string, `->`, a punctuator, or a word.
_LINE_TOKEN = re.compile(r'"[^"]*"|->|[{}();:,<>=]|[^ {}();:,<>="]+')


@st.composite
def _headers(draw, words=_names, gaps=None):
    """Header text over `words` in every name slot.  Canonical by default;
    with `gaps`, a drawn gap (perhaps none, so words may run together) goes
    between any two tokens, and names may repeat."""
    names = draw(st.lists(words, min_size=0, max_size=5, unique=gaps is None))
    decls = [draw(_decls(name, words)) for name in names]
    includes = tuple(draw(st.lists(st.sampled_from(("a.dh", "b/c.dh")), max_size=2, unique=True)))
    lines = [f'include "{inc}";' for inc in includes]
    lines.extend(render_decl(d) for d in decls)
    if gaps is None:
        return "\n".join(lines) + ("\n" if lines else "")
    tokens = [token for line in lines for token in _LINE_TOKEN.findall(line)]
    # A `>` may also be dropped or doubled, to unbalance a `ptr<` nest.
    closes = st.sampled_from((">", ">", ">", "", ">>"))
    return draw(gaps) + "".join(
        (draw(closes) if token == ">" else token) + draw(gaps) for token in tokens
    )


@given(_headers())
def test_render_parse_round_trip(canonical_text):
    ast = parse_header(canonical_text, "p.dh")
    rendered = render_header(ast)
    assert rendered == canonical_text
    assert parse_header(rendered, "p.dh") == ast


@given(_headers())
def test_parse_is_deterministic(text):
    assert parse_header(text, "p.dh") == parse_header(text, "p.dh")


# --- the pattern parsers against the token Cursor ---

_ascii_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# Mixed words: ASCII, digit-led, or with non-ASCII letters or digits, the last
# of which the pattern must leave to the Cursor.
_unicode_words = st.text(alphabet="a_7²½Äé", min_size=1, max_size=4)
_words = st.one_of(_ascii_names, st.sampled_from(sorted(KEYWORDS)), _unicode_words)
_gaps = st.sampled_from(("", " ", "  ", "\t", "\n", "\r\n", " \t "))


@st.composite
def _statement_texts(draw):
    """Statements of every form, any words (keywords, non-ASCII) in every name slot,
    `ptr<` nests balanced or not, and the whitespace the scanner skips, or
    none, between any two tokens (so words may run together)."""
    form = draw(st.sampled_from(("new", "call", "sizeof", "declare")))
    if form in ("new", "call"):
        tokens = [form, draw(_words), ";"]
    elif form == "sizeof":
        tokens = ["sizeof", "(", draw(_words), ")", ";"]
    else:
        opens = draw(st.integers(0, 3))
        closes = draw(st.one_of(st.just(opens), st.integers(0, 3)))
        tokens = ["declare", draw(_words), ":", *["ptr", "<"] * opens, draw(_words),
                  *[">"] * closes, ";"]
    return draw(_gaps) + "".join(token + draw(_gaps) for token in tokens)


_plain_names = _ascii_names.filter(lambda name: name not in KEYWORDS)
_plain_statements = st.one_of(
    st.builds(NewStmt, _plain_names),
    st.builds(CallStmt, _plain_names),
    st.builds(SizeOfStmt, _plain_names),
    st.builds(
        DeclareStmt, _plain_names,
        st.builds(TypeRef, st.one_of(_plain_names, st.sampled_from(("i32", "f64"))),
                  st.integers(0, 3)),
    ),
)


@settings(max_examples=150)
@given(_plain_statements)
def test_statement_pattern_takes_every_canonical_statement(stmt):
    assert _match_statement(render_statement(stmt)) == stmt


@settings(max_examples=300)
@given(st.one_of(_statement_texts(), single_edit(_statement_texts())))
def test_statement_pattern_declines_or_agrees_with_cursor(source):
    assert_same_parse(parse_statement, _match_statement, _parse_statement_tokens, source)


@settings(max_examples=150)
@given(_headers())
def test_header_pattern_takes_every_canonical_header(text):
    ast = parse_header(text, "p.dh")
    assert _match_header(render_header(ast), "p.dh") == ast


# Mostly plain names, two of which repeat often, so that a header often has
# exactly one bad word or one duplicate definition.
_gapped_headers = _headers(st.one_of(st.sampled_from(("A", "B")), _plain_names, _words), _gaps)


@settings(max_examples=300)
@given(st.one_of(_gapped_headers, single_edit(_gapped_headers)))
def test_header_pattern_declines_or_agrees_with_cursor(text):
    assert_same_parse(parse_header, _match_header, _parse_header_tokens, text, "p.dh")
