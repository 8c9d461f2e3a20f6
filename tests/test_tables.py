"""Column tables, searched in place: the `_wire` table codec at its edges,
row lookups against whole-table walks, index postings built only when asked
for, and a layout exactly as long as the row-at-a-time one it replaced.

`.pcm` and `.gmi` file sizes are the simulated currency: every
`summary_bytes` and every charged index read is a byte count, so a format
change must not move a single one.  `tests/data/corpus12_sizes.txt` holds
each 12-module seed-7 artifact's length and each module's `summary_bytes`,
generated with format version 3; `_v3_module_size` and `_v3_index_size`
compute what version 3 would write for any loaded file.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_random_corpus, encode_blob
from modix import gmi, modfile
from modix._wire import Reader, Writer
from modix.bench import open_corpus_session
from modix.declang import Decl, DeclKind, Need
from modix.gmi import IndexFlavor, build_index, load_index
from modix.loader import Strategy
from modix.modfile import DeclFlags, deserialize_decl, deserialize_module
from modix.modfile import read_module_summary
from modix.modulemap import FINAL_MAP_NAME, ModuleDef, ModuleMap, load_modulemap

SIZES = Path(__file__).parent / "data" / "corpus12_sizes.txt"

# Keys that are prefixes of one another, the empty key, multi-byte UTF-8
# ("é" sorts after "z" by bytes), a combining sequence and an astral character.
_EDGE_KEYS = st.sampled_from(
    ["", "a", "ab", "abc", "b", "z", "\u00e9", "\u00e9a", "e\u0301", "\u00b2", "\u20ac",
     "\U0001d11e", "a\x00"]
)
_KEYS = st.one_of(_EDGE_KEYS, st.text(max_size=3))
_ROW = st.tuples(st.integers(0, 2**8 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))


def _lp(text: str) -> int:
    return 4 + len(text.encode("utf-8"))


def _v3_module_size(mf: modfile.ModuleFile) -> tuple[int, int]:
    """(file length, summary_bytes) of a module in the version 3 layout:
    each table row a length-prefixed name, flags u8, blob_offset u64 and
    blob_len u32."""
    summary = 4 + 4 + 8 + _lp(mf.module_name) + 4 + sum(map(_lp, mf.imports))
    summary += 4 + sum(_lp(name) + 13 for name in mf.rows) + 8
    return summary + len(mf.blob_region), summary


def _v3_index_size(index: gmi.GlobalIndex) -> int:
    """The length of an index in the version 3 layout: each entry a
    length-prefixed identifier, a u32 posting count and 5 bytes a posting."""
    size = 4 + 4 + 8 + 1 + 4 + sum(map(_lp, index.excluded))
    size += 4 + sum(4 + _lp(name) + 8 for name in index.module_names)
    size += 4 + sum(_lp(identifier) + 4 for identifier in index.rows)
    return size + 5 * len(index.posting_modules)


def _assert_v3_sizes(directory: Path) -> int:
    """Every module file and index under `directory` is as long as version
    3 would write it.  Returns the number of files checked."""
    checked = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes() if path.suffix in (".pcm", ".gmi") else None
        if data is None:
            continue
        if path.suffix == ".pcm":
            mf = read_module_summary(data)
            assert _v3_module_size(mf) == (len(data), mf.summary_bytes), path.name
        else:
            assert _v3_index_size(load_index(data)) == len(data), path.name
        checked += 1
    return checked


def _module(name: str, names) -> bytes:
    """A module forward-declaring each of `names`."""
    rows = [
        (n, DeclFlags.HAS_FORWARD, encode_blob(Decl(n, DeclKind.STRUCT_FWD, origin=("h.dh", 1))))
        for n in names
    ]
    return modfile._emit(name, (), rows)


def _neighbours(key: str):
    """Strings next to `key`: a prefix, extensions, and the key with its
    last character one code point lower or higher."""
    yield key[:-1]
    yield key + "a"
    yield key + "\x00"
    yield "\x00" + key
    if key:
        for point in (ord(key[-1]) - 1, ord(key[-1]) + 1):
            if 0 <= point < 0x110000 and not 0xD800 <= point < 0xE000:
                yield key[:-1] + chr(point)


class TestCodecEdges:
    @given(st.dictionaries(_KEYS, _ROW, max_size=10))
    @example({})
    @example({"": (1, 2, 3)})
    @example({"a": (1, 0, 0), "ab": (2, 0, 0), "abc": (3, 0, 0)})
    @example({"é": (1, 0, 0), "z": (2, 0, 0), "": (3, 0, 0)})
    def test_table_round_trips(self, rows):
        w = Writer()
        w.raw(b"lead")
        w.table(rows, "BQI", lambda row: row)
        w.raw(b"tail")
        data = w.getvalue()
        r = Reader(data, 4)
        keys, columns = r.table("BQI")
        assert r.raw(4) == b"tail" and r.at_end()
        assert list(keys) == sorted(rows, key=lambda key: key.encode("utf-8"))
        assert list(keys.values()) == list(range(len(rows)))
        assert {key: tuple(column[row] for column in columns) for key, row in keys.items()} == rows
        # A row costs what a version 3 row did: a 4-byte length, the key and
        # its 13 bytes of fields.
        assert len(data) == 8 + 4 + sum(_lp(key) + 13 for key in rows)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_KEYS, unique=True, max_size=6), min_size=1, max_size=3))
    def test_neighbours_miss_and_lookups_equal_the_whole_table(self, modules):
        map_ = ModuleMap(tuple(ModuleDef(f"M{m}", (f"M{m}/h.dh",)) for m in range(len(modules))))
        summaries = [read_module_summary(_module(f"M{m}", names)) for m, names in enumerate(modules)]
        index = load_index(build_index(map_, modfile.fold_rows(summaries), IndexFlavor.SEMANTIC))
        for mf, names in zip(summaries, modules):
            for name in names:
                for probe in _neighbours(name):
                    if probe not in names:
                        assert mf.rows.get(probe) is None, probe
            assert [deserialize_decl(mf, mf.rows[name])[0].name for name in names] == names
            assert [name for name, _, _ in deserialize_module(mf)] == list(mf.rows)
        every = {name for names in modules for name in names}
        for name in every:
            for probe in _neighbours(name):
                if probe not in every:
                    assert index.entry(probe) == (), probe
        assert sorted(index.rows) == sorted(every)
        walked = [p.module for name in index.rows for p in index.entry(name)]
        assert walked == [f"M{m}" for m in index.posting_modules]
        for name in every:
            posted = [p.module for p in index.entry(name)]
            assert posted == [mf.module_name for mf in summaries if name in mf.rows]


def test_corpus12_lookups_equal_the_whole_table(corpus12):
    """Decoding each row found by name equals decoding the whole module,
    and `GlobalIndex.entry` over every identifier walks every posting once,
    in file order."""
    for path in sorted(corpus12.glob("*.pcm")):
        mf = read_module_summary(path.read_bytes())
        assert [name for name, _, _ in mf.blobs()] == list(mf.rows)
        assert [(name, *deserialize_decl(mf, mf.rows[name])) for name in mf.rows] == deserialize_module(mf)
    for name in (gmi.INDEX_FILE_NAME, gmi.LEXICAL_INDEX_FILE_NAME):
        index = load_index((corpus12 / name).read_bytes())
        modules = {index.order[name]: name for name in index.module_names}
        walked = [(p.module, p.flags) for identifier in index.rows for p in index.entry(identifier)]
        assert walked == [(modules[m], flags) for m, flags in zip(index.posting_modules, index.posting_flags)]


class TestRowsBuiltWhenAsked:
    @pytest.fixture
    def refuse(self, monkeypatch):
        def refuse(owner, name):
            def refused(*args):
                raise AssertionError(f"built {name}")

            monkeypatch.setattr(owner, name, refused)

        return refuse

    def test_loads_build_no_row(self, corpus12, refuse):
        refuse(gmi, "Posting")
        for path in sorted(corpus12.iterdir()):
            if path.suffix == ".pcm":
                read_module_summary(path.read_bytes())
            elif path.suffix == ".gmi":
                load_index(path.read_bytes())

    @pytest.mark.parametrize("strategy", [Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI])
    def test_gmi_open_builds_no_posting(self, corpus12, refuse, strategy):
        refuse(gmi, "Posting")
        session = open_corpus_session(corpus12, strategy)
        name = next(iter(load_index((corpus12 / gmi.INDEX_FILE_NAME).read_bytes()).rows))
        with pytest.raises(AssertionError, match="built Posting"):
            session.resolve(name, Need.DEFINITION)


class TestSizeNeutral:
    def test_corpus12_sizes_are_the_version_3_sizes(self, corpus12):
        expected = {}
        for line in SIZES.read_text("utf-8").splitlines():
            measure, value, name = line.split()
            expected[measure, name] = int(value)
        actual = {}
        for path in sorted(corpus12.iterdir()):
            if path.suffix in (".pcm", ".gmi", ".rootmap"):
                actual["size", path.name] = path.stat().st_size
            if path.suffix == ".pcm":
                actual["summary_bytes", path.stem] = read_module_summary(path.read_bytes()).summary_bytes
        assert actual == expected
        assert _assert_v3_sizes(corpus12) == 15

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_corpora_are_the_version_3_sizes(self, tmp_path_factory, seed):
        corpus = build_random_corpus(random.Random(seed), tmp_path_factory.mktemp("sizes"))
        assert load_modulemap(corpus.dir / FINAL_MAP_NAME).names == corpus.map.names
        assert _assert_v3_sizes(corpus.dir) == len(corpus.map.names) + 3

    @given(st.lists(_KEYS, unique=True, max_size=8), st.lists(st.text(max_size=3), max_size=3))
    def test_any_names_are_the_version_3_sizes(self, names, imports):
        data = _module("Mé", names)
        mf = read_module_summary(data)
        assert _v3_module_size(mf) == (len(data), mf.summary_bytes)
        rows = [(n, DeclFlags.HAS_FORWARD, encode_blob(Decl(n, DeclKind.STRUCT_FWD, origin=("h", 1))))
                for n in names]
        data = modfile._emit("M", imports, rows)
        mf = read_module_summary(data)
        assert _v3_module_size(mf) == (len(data), mf.summary_bytes)
