from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_parse, single_edit
from modix.declang import KEYWORDS
from modix.errors import (
    DuplicateModule,
    EmptyModule,
    HeaderClaimedTwice,
    ModuleNotFound,
    ParseError,
)
from modix.modulemap import (
    ModuleDef,
    Overlay,
    SearchPaths,
    concat_modulemaps,
    parse_modulemap,
    parse_overlay,
    resolve_module_path,
    _match_modulemap,
    _parse_modulemap_tokens,
)


class TestParseModulemap:
    def test_single_module(self):
        defs = parse_modulemap('module Gpad { header "Gpad.dh" }')
        assert defs == [ModuleDef("Gpad", ("Gpad.dh",))]

    def test_empty_text(self):
        assert parse_modulemap("") == []

    def test_empty_module_rejected(self):
        with pytest.raises(EmptyModule):
            parse_modulemap("module M { }")

    def test_comments_and_multiple_headers(self):
        defs = parse_modulemap(
            "// per-library map\nmodule M {\n  header \"a.dh\"\n  header \"b.dh\" // two\n}"
        )
        assert defs[0].headers == ("a.dh", "b.dh")

    def test_duplicate_header_in_one_module_rejected(self):
        with pytest.raises(ParseError):
            parse_modulemap('module M { header "a.dh" header "a.dh" }')

    @pytest.mark.parametrize(
        "text, line, col, expected, got",
        [
            ('header "a.dh"', 1, 1, "'module'", "header"),
            ("module { }", 1, 8, "module name", "{"),
            ("module", 1, 7, "module name", "end of input"),
            ("module M ( )", 1, 10, "'{'", "("),
            ("module M { header a }", 1, 19, "header path string", "a"),
            ('module M {\n  heder "a.dh" }', 2, 3, "'header' or '}'", "heder"),
            ('module M { header "a.dh"', 1, 25, "'header' or '}'", "end of input"),
            ('module M {\n header "a.dh"\n header "a.dh" }', 3, 9, "distinct header path", "a.dh"),
        ],
    )
    def test_error_positions(self, text, line, col, expected, got):
        with pytest.raises(ParseError) as excinfo:
            parse_modulemap(text)
        err = excinfo.value
        assert (err.line, err.col, err.expected, err.got) == (line, col, expected, got)

    @pytest.mark.parametrize(
        "text, name",
        [
            ('module ptr { header "a" }', "ptr"),
            ('module M {header"a"}', "M"),
            ('// c\nmodule M { header "a" } // d\n', "M"),
        ],
    )
    def test_accepted_boundaries(self, text, name):
        assert parse_modulemap(text) == [ModuleDef(name, ("a",))]

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                'module M {\n header "a"\n header "a" }',
                ParseError,
                "3:9: expected distinct header path, got a",
            ),
            ("module M { }", EmptyModule, "module 'M' declares no headers"),
        ],
    )
    def test_rejected_boundaries(self, text, error, message):
        with pytest.raises(error) as excinfo:
            parse_modulemap(text)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_modulemap("module M ( )")
        with pytest.raises(ParseError):
            parse_modulemap('header "a.dh"')



# --- the module map pattern against the token Cursor ---

_module_names = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS | {"module", "header"})),
)
_any_module_names = st.one_of(
    _module_names, st.text(alphabet="a_7²½Äé", min_size=1, max_size=4)
)
_header_paths = st.text(alphabet="ab/._- Ä", max_size=6)
_map_gaps = st.sampled_from(("", " ", "\n", "\t", "\r\n", "\n  "))


@st.composite
def _map_texts(draw):
    """Maps of zero to three modules: any name (non-ASCII too), zero to three
    header paths (repeats possible), the whitespace the scanner skips or none (so
    `module` may run into the name) and, now and then, a comment."""
    text = ""
    for _ in range(draw(st.integers(0, 3))):
        paths = draw(st.lists(_header_paths, max_size=3))
        text += (
            draw(_map_gaps) + "module" + draw(_map_gaps) + draw(_any_module_names)
            + draw(_map_gaps) + "{"
            + "".join(f'{draw(_map_gaps)}header{draw(_map_gaps)}"{p}"' for p in paths)
            + draw(_map_gaps) + "}"
        )
        if draw(st.integers(0, 9)) == 0:
            text += " // note\n"
    return text + draw(_map_gaps)


def _render_map(defs):
    return "\n".join(
        f"module {d.name} {{\n" + "".join(f'  header "{h}"\n' for h in d.headers) + "}"
        for d in defs
    )


_plain_defs = st.lists(
    st.builds(
        ModuleDef, _module_names,
        st.lists(_header_paths, min_size=1, max_size=3, unique=True).map(tuple),
    ),
    max_size=4,
)


@settings(max_examples=150)
@given(_plain_defs)
def test_map_pattern_takes_every_canonical_map(defs):
    assert _match_modulemap(_render_map(defs)) == defs


@settings(max_examples=300)
@given(st.one_of(_map_texts(), single_edit(_map_texts())))
def test_map_pattern_declines_or_agrees_with_cursor(text):
    assert_same_parse(parse_modulemap, _match_modulemap, _parse_modulemap_tokens, text)


class TestConcat:
    def _defs(self, name, *headers):
        return [ModuleDef(name, headers)]

    def test_positional_ids(self):
        m = concat_modulemaps(
            [("A.modulemap", self._defs("A", "a.dh")), ("B.modulemap", self._defs("B", "b.dh"))]
        )
        assert m.module_id("A") == 0
        assert m.module_id("B") == 1
        assert m.names == ("A", "B")

    def test_duplicate_module_rejected(self):
        with pytest.raises(DuplicateModule) as excinfo:
            concat_modulemaps(
                [("f1", self._defs("X", "a.dh")), ("f2", self._defs("X", "b.dh"))]
            )
        assert (excinfo.value.file_a, excinfo.value.file_b) == ("f1", "f2")

    def test_header_claimed_twice_rejected(self):
        with pytest.raises(HeaderClaimedTwice) as excinfo:
            concat_modulemaps(
                [("f1", self._defs("A", "h.dh")), ("f2", self._defs("B", "h.dh"))]
            )
        assert (excinfo.value.module_a, excinfo.value.module_b) == ("A", "B")

    def test_concat_is_associative(self):
        parts = [
            ("f1", self._defs("A", "a.dh")),
            ("f2", self._defs("B", "b.dh")),
            ("f3", self._defs("C", "c.dh")),
        ]
        flat = concat_modulemaps(parts)
        nested_defs = concat_modulemaps(parts[:2]).defs + concat_modulemaps(parts[2:]).defs
        assert tuple(d.name for d in flat.defs) == tuple(d.name for d in nested_defs)
        assert flat.module_id("C") == 2

    def test_stable_under_identical_input(self):
        parts = [("f1", self._defs("A", "a.dh")), ("f2", self._defs("B", "b.dh"))]
        assert concat_modulemaps(parts) == concat_modulemaps(parts)


class TestOverlay:
    def test_basic_remap(self):
        overlay = Overlay((("/virt/x", "/real/x"),))
        assert overlay.apply("/virt/x/a.dh") == "/real/x/a.dh"

    def test_no_match_is_identity(self):
        overlay = Overlay((("/virt/x", "/real/x"),))
        assert overlay.apply("/other/a.dh") == "/other/a.dh"

    def test_longest_prefix_wins(self):
        overlay = Overlay((("/v", "/r1"), ("/v/w", "/r2")))
        assert overlay.apply("/v/w/f") == "/r2/f"
        assert overlay.apply("/v/q") == "/r1/q"

    def test_component_boundaries_respected(self):
        overlay = Overlay((("/v/x", "/r"),))
        assert overlay.apply("/v/xy/f") == "/v/xy/f"
        assert overlay.apply("/v/x") == "/r"

    def test_parse_overlay(self):
        overlay = parse_overlay("# comment\n\n/virt -> /real\n/virt/deep -> /other\n")
        assert overlay.mappings == (("/virt", "/real"), ("/virt/deep", "/other"))

    def test_parse_overlay_rejects_duplicates_and_garbage(self):
        with pytest.raises(ParseError):
            parse_overlay("/a -> /b\n/a -> /c\n")
        with pytest.raises(ParseError):
            parse_overlay("just a line\n")

    @given(st.text(alphabet="ab/", max_size=12))
    def test_overlay_never_changes_unmapped_paths(self, path):
        assert Overlay(()).apply(path) == path


class TestResolveModulePath:
    def test_release_only(self, tmp_path):
        release = tmp_path / "release"
        release.mkdir()
        (release / "M.pcm").write_bytes(b"x")
        paths = SearchPaths((), str(release))
        assert resolve_module_path(paths, "M") == str(release / "M.pcm")

    def test_local_takes_precedence(self, tmp_path):
        release, local = tmp_path / "release", tmp_path / "local"
        release.mkdir(), local.mkdir()
        (release / "M.pcm").write_bytes(b"r")
        (local / "M.pcm").write_bytes(b"l")
        paths = SearchPaths((str(local),), str(release))
        assert resolve_module_path(paths, "M") == str(local / "M.pcm")

    def test_local_roots_are_ordered(self, tmp_path):
        first, second, release = tmp_path / "a", tmp_path / "b", tmp_path / "rel"
        for d in (first, second, release):
            d.mkdir()
        (second / "M.pcm").write_bytes(b"2")
        paths = SearchPaths((str(first), str(second)), str(release))
        assert resolve_module_path(paths, "M") == str(second / "M.pcm")

    def test_missing_module(self, tmp_path):
        paths = SearchPaths((), str(tmp_path))
        with pytest.raises(ModuleNotFound):
            resolve_module_path(paths, "Nope")

    def test_overlay_applied_to_candidates(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (real / "M.pcm").write_bytes(b"x")
        overlay = Overlay(((str(tmp_path / "virt"), str(real)),))
        paths = SearchPaths((), str(tmp_path / "virt"))
        assert resolve_module_path(paths, "M", overlay) == str(real / "M.pcm")
