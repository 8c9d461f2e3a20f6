from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest

from conftest import index_bytes
from modix.bench import compile_tree
from modix.declang import parse_header
from modix.errors import CorruptTable, BadMagic, BadVersion, HashMismatch, ModuleNotFound
from modix._wire import Writer, sealed
from modix.gmi import (
    MAGIC,
    VERSION,
    IndexFlavor,
    Posting,
    PostingFlags,
    Staleness,
    build_index,
    load_index,
    validate_index,
)
from modix.modfile import DeclFlags, EntityKind, compile_module, deserialize_decl, merge_entities
from modix.modfile import fold_rows, read_module_summary, read_modules
from modix.modulemap import FINAL_MAP_NAME, ModuleDef, concat_modulemaps

_DEFINES = PostingFlags.MENTIONS | PostingFlags.DEFINES


def _write_module(directory: Path, name: str, source: str, imports=()):
    header = parse_header(source, "h.dh")
    (directory / f"{name}.pcm").write_bytes(compile_module(name, [header], imports))


def _map_for(names):
    return concat_modulemaps(
        [(f"{n}.modulemap", [ModuleDef(n, (f"{n}/h.dh",))]) for n in names]
    )


@pytest.fixture
def gpad_dir(tmp_path):
    """Gpad defined in M0, forward-declared in M1..M5."""
    _write_module(tmp_path, "M0", "struct Gpad { x: i32; };")
    for i in range(1, 6):
        _write_module(tmp_path, f"M{i}", "struct Gpad;")
    return tmp_path, _map_for([f"M{i}" for i in range(6)])


def _semantic(directory, module_map, excluded=()):
    return load_index(index_bytes(module_map, directory, IndexFlavor.SEMANTIC, excluded))


def _lexical(directory, module_map, excluded=()):
    return load_index(index_bytes(module_map, directory, IndexFlavor.LEXICAL, excluded))


class TestBuildAndLookup:
    def test_single_module_posting(self, tmp_path):
        _write_module(tmp_path, "M0", "struct A { x: i32; };")
        index = _semantic(tmp_path, _map_for(["M0"]))
        assert index.entry("A") == (Posting("M0", _DEFINES),)

    def test_gpad_has_six_postings_one_defines(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        postings = index.entry("Gpad")
        assert [p.module for p in postings] == [f"M{i}" for i in range(6)]
        defines = [p.module for p in postings if p.flags & PostingFlags.DEFINES]
        assert defines == ["M0"]

    def test_exclusion_removes_postings_and_is_recorded(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map, excluded=["M0"])
        postings = index.entry("Gpad")
        assert len(postings) == 5
        assert not any(p.flags & PostingFlags.DEFINES for p in postings)
        assert index.excluded == ("M0",)

    def test_unknown_identifier_is_empty(self, gpad_dir):
        directory, module_map = gpad_dir
        assert _semantic(directory, module_map).entry("Nope") == ()

    def test_missing_module_file(self, tmp_path):
        with pytest.raises(ModuleNotFound):
            index_bytes(_map_for(["Ghost"]), tmp_path, IndexFlavor.SEMANTIC)

    def test_lexical_flags_collapse_to_mentions(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _lexical(directory, module_map)
        assert all(
            p.flags == PostingFlags.MENTIONS for p in index.entry("Gpad")
        )


class TestLookupDefinition:
    """A semantic session loads the first DEFINES posting of an identifier:
    the lowest module id holding its top-ranked kind."""

    def test_gpad_defines_m0(self, gpad_dir):
        directory, module_map = gpad_dir
        postings = _semantic(directory, module_map).entry("Gpad")
        assert [p.module for p in postings if p.flags & PostingFlags.DEFINES] == ["M0"]

    def test_forward_only_name_has_no_definition(self, tmp_path):
        _write_module(tmp_path, "M0", "struct Ghost;")
        index = _semantic(tmp_path, _map_for(["M0"]))
        assert index.entry("Ghost") == (Posting("M0", PostingFlags.MENTIONS),)

    def test_identical_duplicates_pick_lowest_module_id(self, tmp_path):
        for name in ("A0", "A1", "A2"):
            _write_module(tmp_path, name, "struct Dup { x: i32; };")
        index = _semantic(tmp_path, _map_for(["A2", "A0", "A1"]))
        assert index.entry("Dup") == tuple(Posting(name, _DEFINES) for name in ("A2", "A0", "A1"))


class TestValidate:
    def test_untouched_corpus_is_fresh(self, gpad_dir):
        directory, module_map = gpad_dir
        verdict = validate_index(_semantic(directory, module_map), directory)
        assert list(verdict) == list(module_map.names)  # index module order
        assert set(verdict.values()) == {Staleness.FRESH}

    def test_recompiled_module_is_hash_mismatch(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        _write_module(directory, "M3", "struct Gpad;\nstruct Extra;")
        verdict = validate_index(index, directory)
        assert {name: s for name, s in verdict.items() if s is not Staleness.FRESH} == {
            "M3": Staleness.HASH_MISMATCH
        }

    def test_deleted_module_is_missing(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        (directory / "M5.pcm").unlink()
        verdict = validate_index(index, directory)
        assert tuple(name for name, s in verdict.items() if s is Staleness.MISSING) == ("M5",)

    def test_excluded_modules_are_not_validated(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map, excluded=["M0"])
        (directory / "M0.pcm").unlink()
        verdict = validate_index(index, directory)
        assert "M0" not in verdict and set(verdict.values()) == {Staleness.FRESH}


def _index_bytes(modules, entries, key_ends=None, posting_ends=None):
    """A semantic index with (module_id, name) rows and (identifier,
    [(module_id, flags), ...]) entries, written as given, in the version 4
    column layout; `key_ends` and `posting_ends` replace the columns the
    entries give."""
    heap = [identifier.encode("utf-8") for identifier, _ in entries]
    postings = [posting for _, plist in entries for posting in plist]
    w = Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u64(0)  # self-hash, sealed below
    w.u8(IndexFlavor.SEMANTIC.value)
    w.u32(0)  # no excluded modules
    w.u32(len(modules))
    for module_id, name in modules:
        w.u32(module_id)
        w.lpstr(name)
        w.u64(0)
    w.u32(len(entries))
    w.column("I", key_ends or itertools.accumulate(map(len, heap)))
    w.column("I", posting_ends or itertools.accumulate(len(plist) for _, plist in entries))
    w.raw(b"".join(heap))
    w.column("I", [module_id for module_id, _ in postings])
    w.column("B", [flags for _, flags in postings])
    return sealed(w.getvalue())


class TestBuildFromSummaries:
    @pytest.mark.parametrize("flavor", list(IndexFlavor))
    @pytest.mark.parametrize("excluded", [(), ("M3",)])
    def test_compiled_summaries_index_as_the_files_do(self, corpus12, tmp_path, flavor, excluded):
        module_map, release = compile_tree(corpus12 / FINAL_MAP_NAME, tmp_path)
        summaries = list(read_modules(tmp_path, module_map.names))
        assert release == fold_rows(summaries)
        if excluded:
            release = fold_rows(mf for mf in summaries if mf.module_name not in excluded)
        data = build_index(module_map, release, flavor)
        assert data == index_bytes(module_map, tmp_path, flavor, excluded)
        assert load_index(data).excluded == excluded


class TestFormat:
    def test_round_trip(self, gpad_dir):
        directory, module_map = gpad_dir
        data = index_bytes(module_map, directory, IndexFlavor.SEMANTIC, ["M5"])
        index = load_index(data)
        assert index.flavor is IndexFlavor.SEMANTIC
        assert index.excluded == ("M5",)
        assert [m.name for m in index.modules] == [f"M{i}" for i in range(5)]
        assert index_bytes(module_map, directory, IndexFlavor.SEMANTIC, ["M5"]) == data

    def test_bad_magic_and_truncation(self, gpad_dir):
        directory, module_map = gpad_dir
        data = index_bytes(module_map, directory, IndexFlavor.LEXICAL)
        with pytest.raises(BadMagic):
            load_index(b"XXXX" + data[4:])
        # The self-hash, checked first, catches a cut or a grown file; one
        # hashed as it stands reaches the framing checks.
        for damaged in (data[:-3], data + b"\x00"):
            with pytest.raises(HashMismatch):
                load_index(damaged)
            with pytest.raises(CorruptTable):
                load_index(sealed(damaged))

    def test_version_1_rejected(self, gpad_dir):
        directory, module_map = gpad_dir
        data = bytearray(index_bytes(module_map, directory, IndexFlavor.SEMANTIC))
        data[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(BadVersion):
            load_index(bytes(data))

    def test_version_2_rejected(self, gpad_dir):
        # Rehashed, so only the version tells it apart.
        directory, module_map = gpad_dir
        data = bytearray(index_bytes(module_map, directory, IndexFlavor.SEMANTIC))
        data[4:8] = (2).to_bytes(4, "little")
        with pytest.raises(BadVersion, match="unsupported index version 2"):
            load_index(sealed(data))

    def test_version_3_rejected(self, gpad_dir):
        directory, module_map = gpad_dir
        data = bytearray(index_bytes(module_map, directory, IndexFlavor.SEMANTIC))
        data[4:8] = (3).to_bytes(4, "little")
        with pytest.raises(BadVersion, match="unsupported index version 3"):
            load_index(sealed(data))

    def test_self_hash_is_blake2b_64_with_the_field_zeroed(self, gpad_dir):
        directory, module_map = gpad_dir
        data = index_bytes(module_map, directory, IndexFlavor.LEXICAL)
        zeroed = data[:8] + bytes(8) + data[16:]
        assert data[8:16] == hashlib.blake2b(zeroed, digest_size=8).digest()
        for damaged in (data[:8] + bytes(8) + data[16:], data[:-1] + bytes([data[-1] ^ 1])):
            with pytest.raises(HashMismatch, match="index self-hash mismatch"):
                load_index(damaged)

    def test_written_index_loads(self):
        index = load_index(_index_bytes([(0, "M0"), (1, "M1")], [("A", [(0, 3), (1, 1)])]))
        assert index.entry("A") == (Posting("M0", _DEFINES), Posting("M1", PostingFlags.MENTIONS))

    def test_posting_for_unknown_module_id_rejected(self):
        with pytest.raises(CorruptTable, match="'A' posts unknown module 99"):
            load_index(_index_bytes([(0, "M0")], [("A", [(0, 1), (99, 1)])]))

    @pytest.mark.parametrize("flags", [4, 6, 0x80])
    def test_unknown_posting_flag_bits_rejected(self, flags):
        with pytest.raises(CorruptTable, match=f"unknown flag bits in {flags:#04x}"):
            load_index(_index_bytes([(0, "M0")], [("A", [(0, flags)])]))

    @pytest.mark.parametrize("flags", [0, 2])
    def test_posting_flags_that_build_index_never_writes_rejected(self, flags):
        # Only MENTIONS and MENTIONS|DEFINES are written: no bits, or DEFINES
        # alone, is a damaged index although both bits are known.
        with pytest.raises(CorruptTable, match=f"flags {flags:#04x} are never written"):
            load_index(_index_bytes([(0, "M0")], [("A", [(0, flags)])]))

    @pytest.mark.parametrize("postings", [[(1, 3), (0, 3)], [(0, 1), (0, 3)]])
    def test_postings_not_in_module_id_order_rejected(self, postings):
        with pytest.raises(CorruptTable, match="'A' posts unordered module 0"):
            load_index(_index_bytes([(0, "M0"), (1, "M1")], [("A", postings)]))

    def test_unordered_posting_is_named_after_its_entry(self):
        # Each entry's ids restart, so only a fall inside one is a fault.
        entries = [("A", [(1, 1)]), ("B", [(0, 1), (1, 1)]), ("C", [(1, 1), (0, 1)])]
        with pytest.raises(CorruptTable, match="'C' posts unordered module 0"):
            load_index(_index_bytes([(0, "M0"), (1, "M1")], entries))

    @pytest.mark.parametrize("key_ends, posting_ends, problem", [
        ([1, 0], None, "table key ends decrease at row 1"),
        ([1, 9], None, "truncated|trailing bytes"),
        (None, [2, 1], "posting ends decrease at 'B'"),
        (None, [1, 9], "truncated"),
        (None, [1, 1], "trailing bytes after index entries"),
    ], ids=["key-end-decreases", "key-end-past-heap", "posting-end-decreases",
            "posting-end-past-postings", "posting-end-short"])
    def test_version_4_column_faults_rejected(self, key_ends, posting_ends, problem):
        entries = [("A", [(0, 1)]), ("B", [(0, 1)])]
        with pytest.raises(CorruptTable, match=problem):
            load_index(_index_bytes([(0, "M0")], entries, key_ends, posting_ends))

    def test_index_bytes_writes_the_format(self, gpad_dir):
        directory, module_map = gpad_dir
        index = load_index(index_bytes(module_map, directory, IndexFlavor.SEMANTIC))
        entries = [
            (identifier, [(int(p.module[1:]), int(p.flags)) for p in index.entry(identifier)])
            for identifier in index.rows
        ]
        rebuilt = load_index(_index_bytes([(m.module_id, m.name) for m in index.modules], entries))
        assert list(rebuilt.rows) == list(index.rows)
        assert all(rebuilt.entry(identifier) == index.entry(identifier) for identifier in index.rows)

    @pytest.mark.parametrize("modules", [[(0, "M0"), (0, "M1")], [(0, "M0"), (1, "M0")]])
    def test_duplicate_module_id_or_name_rejected(self, modules):
        with pytest.raises(CorruptTable):
            load_index(_index_bytes(modules, [("A", [(0, 1)])]))

    @pytest.mark.parametrize("identifiers", [("B", "A"), ("A", "A"), ("é", "z")])
    def test_identifiers_not_strictly_increasing_rejected(self, identifiers):
        entries = [(identifier, [(0, 1)]) for identifier in identifiers]
        with pytest.raises(CorruptTable):
            load_index(_index_bytes([(0, "M0")], entries))


def assert_index_consistent(index, directory, module_map):
    """Completeness, soundness, and the definition-flag invariant: in a
    semantic index, DEFINES marks exactly the postings whose declaration
    ODR merging of all the postings would pick (any of the top-ranked kind),
    and none when that is a forward declaration."""
    excluded = set(index.excluded)
    tables = {}
    for name in module_map.names:
        path = Path(directory) / f"{name}.pcm"
        if path.is_file():
            tables[name] = read_module_summary(path.read_bytes())
    # Completeness: every identifier of every indexed module is found.
    for name, mf in tables.items():
        if name in excluded:
            continue
        for identifier in mf.rows:
            modules = [p.module for p in index.entry(identifier)]
            assert name in modules, f"{identifier} missing posting for {name}"
    # Soundness + semantic refinement.
    for identifier in index.rows:
        postings = index.entry(identifier)
        for posting in postings:
            row = tables[posting.module].rows.get(identifier)
            assert row is not None, f"posting for absent {identifier}"
            if posting.flags & PostingFlags.DEFINES:
                assert tables[posting.module].flags[row] & DeclFlags.HAS_DEFINITION
        if index.flavor is not IndexFlavor.SEMANTIC:
            continue
        candidates = [
            (decl, p.module, payload)
            for p in postings
            for decl, payload in [deserialize_decl(tables[p.module], tables[p.module].rows[identifier])]
        ]
        entity = merge_entities(candidates, {name: i for i, name in enumerate(module_map.names)})
        winners = [m for _, m, payload in candidates if payload == entity.canonical_payload]
        defining = [p.module for p in postings if p.flags & PostingFlags.DEFINES]
        assert defining == ([] if entity.kind is EntityKind.FORWARD else winners), identifier


class TestInvariants:
    def test_completeness_and_soundness(self, gpad_dir):
        directory, module_map = gpad_dir
        assert_index_consistent(_semantic(directory, module_map), directory, module_map)
        assert_index_consistent(_lexical(directory, module_map), directory, module_map)

    def test_semantic_refines_lexical(self, gpad_dir):
        directory, module_map = gpad_dir
        semantic, lexical = _semantic(directory, module_map), _lexical(directory, module_map)
        defines = {p.module for p in semantic.entry("Gpad") if p.flags & PostingFlags.DEFINES}
        assert defines < {p.module for p in lexical.entry("Gpad")}

    def test_stripping_defines_matches_lexical(self, gpad_dir):
        directory, module_map = gpad_dir
        semantic, lexical = _semantic(directory, module_map), _lexical(directory, module_map)
        assert list(semantic.rows) == list(lexical.rows)
        for identifier in semantic.rows:
            postings = semantic.entry(identifier)
            stripped = [Posting(p.module, p.flags & ~PostingFlags.DEFINES) for p in postings]
            assert stripped == list(lexical.entry(identifier))
