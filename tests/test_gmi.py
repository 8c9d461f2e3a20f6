from __future__ import annotations

from pathlib import Path

import pytest

from modix.declang import parse_header
from modix.errors import CorruptTable, BadMagic, BadVersion, ModuleNotFound, WrongFlavor
from modix.gmi import (
    IndexFlavor,
    PostingFlags,
    Staleness,
    build_index,
    load_index,
    lookup,
    lookup_definition,
    validate_index,
)
from modix.modfile import DeclFlags, compile_module, read_module_summary
from modix.modulemap import ModuleDef, concat_modulemaps


def _write_module(directory: Path, name: str, source: str, imports=()):
    header = parse_header(source, "h.dh")
    (directory / f"{name}.pcm").write_bytes(compile_module(name, [header], imports))


def _map_for(names):
    return concat_modulemaps(
        [(f"{n}.modulemap", [ModuleDef(n, (f"{n}/h.dh",), f"{n}.modulemap")]) for n in names]
    )


@pytest.fixture
def gpad_dir(tmp_path):
    """Gpad defined in M0, forward-declared in M1..M5."""
    _write_module(tmp_path, "M0", "struct Gpad { x: i32; };")
    for i in range(1, 6):
        _write_module(tmp_path, f"M{i}", "struct Gpad;")
    return tmp_path, _map_for([f"M{i}" for i in range(6)])


def _semantic(directory, module_map, excluded=()):
    return load_index(build_index(module_map, directory, IndexFlavor.SEMANTIC, excluded))


def _lexical(directory, module_map, excluded=()):
    return load_index(build_index(module_map, directory, IndexFlavor.LEXICAL, excluded))


class TestBuildAndLookup:
    def test_single_module_posting(self, tmp_path):
        _write_module(tmp_path, "M0", "struct A { x: i32; };")
        index = _semantic(tmp_path, _map_for(["M0"]))
        assert lookup(index, "A") == [("M0", PostingFlags.MENTIONS | PostingFlags.DEFINES)]

    def test_gpad_has_six_postings_one_defines(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        postings = lookup(index, "Gpad")
        assert [name for name, _ in postings] == [f"M{i}" for i in range(6)]
        defines = [name for name, flags in postings if flags & PostingFlags.DEFINES]
        assert defines == ["M0"]

    def test_exclusion_removes_postings_and_is_recorded(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map, excluded=["M0"])
        postings = lookup(index, "Gpad")
        assert len(postings) == 5
        assert not any(flags & PostingFlags.DEFINES for _, flags in postings)
        assert index.excluded == ("M0",)

    def test_unknown_identifier_is_empty(self, gpad_dir):
        directory, module_map = gpad_dir
        assert lookup(_semantic(directory, module_map), "Nope") == []

    def test_missing_module_file(self, tmp_path):
        with pytest.raises(ModuleNotFound):
            build_index(_map_for(["Ghost"]), tmp_path, IndexFlavor.SEMANTIC)

    def test_lexical_flags_collapse_to_mentions(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _lexical(directory, module_map)
        assert all(
            flags == PostingFlags.MENTIONS for _, flags in lookup(index, "Gpad")
        )


class TestLookupDefinition:
    def test_gpad_defines_m0(self, gpad_dir):
        directory, module_map = gpad_dir
        assert lookup_definition(_semantic(directory, module_map), "Gpad") == "M0"

    def test_forward_only_name_has_no_definition(self, tmp_path):
        _write_module(tmp_path, "M0", "struct Ghost;")
        index = _semantic(tmp_path, _map_for(["M0"]))
        assert lookup_definition(index, "Ghost") is None

    def test_identical_duplicates_pick_lowest_module_id(self, tmp_path):
        for name in ("A0", "A1", "A2"):
            _write_module(tmp_path, name, "struct Dup { x: i32; };")
        index = _semantic(tmp_path, _map_for(["A0", "A1", "A2"]))
        assert lookup_definition(index, "Dup") == "A0"

    def test_wrong_flavor_rejected(self, gpad_dir):
        directory, module_map = gpad_dir
        with pytest.raises(WrongFlavor):
            lookup_definition(_lexical(directory, module_map), "Gpad")


class TestValidate:
    def test_untouched_corpus_is_fresh(self, gpad_dir):
        directory, module_map = gpad_dir
        report = validate_index(_semantic(directory, module_map), directory)
        assert report.all_fresh
        assert len(report.statuses) == 6

    def test_recompiled_module_is_hash_mismatch(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        _write_module(directory, "M3", "struct Gpad;\nstruct Extra;")
        report = validate_index(index, directory)
        assert report.modules_with(Staleness.HASH_MISMATCH) == ("M3",)
        assert not report.all_fresh

    def test_deleted_module_is_missing(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map)
        (directory / "M5.pcm").unlink()
        assert validate_index(index, directory).modules_with(Staleness.MISSING) == ("M5",)

    def test_excluded_modules_are_not_validated(self, gpad_dir):
        directory, module_map = gpad_dir
        index = _semantic(directory, module_map, excluded=["M0"])
        (directory / "M0.pcm").unlink()
        assert validate_index(index, directory).all_fresh


class TestFormat:
    def test_round_trip(self, gpad_dir):
        directory, module_map = gpad_dir
        data = build_index(module_map, directory, IndexFlavor.SEMANTIC, ["M5"])
        index = load_index(data)
        assert index.flavor is IndexFlavor.SEMANTIC
        assert index.file_size == len(data)
        assert index.excluded == ("M5",)
        assert [m.name for m in index.modules] == [f"M{i}" for i in range(5)]
        assert build_index(module_map, directory, IndexFlavor.SEMANTIC, ["M5"]) == data

    def test_bad_magic_and_truncation(self, gpad_dir):
        directory, module_map = gpad_dir
        data = build_index(module_map, directory, IndexFlavor.LEXICAL)
        with pytest.raises(BadMagic):
            load_index(b"XXXX" + data[4:])
        with pytest.raises(CorruptTable):
            load_index(data[:-3])
        with pytest.raises(CorruptTable):
            load_index(data + b"\x00")

    def test_version_1_rejected(self, gpad_dir):
        directory, module_map = gpad_dir
        data = bytearray(build_index(module_map, directory, IndexFlavor.SEMANTIC))
        data[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(BadVersion):
            load_index(bytes(data))


def assert_index_consistent(index, directory, module_map):
    """Completeness, soundness, and the definition-flag invariant."""
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
        for entry in mf.ident_table:
            modules = [m for m, _ in lookup(index, entry.name)]
            assert name in modules, f"{entry.name} missing posting for {name}"
    # Soundness + semantic refinement.
    for entry in index.entries:
        for posting in entry.postings:
            module = index.module_name(posting.module_id)
            table_entry = tables[module].find(entry.identifier)
            assert table_entry is not None, f"posting for absent {entry.identifier}"
            if posting.flags & PostingFlags.DEFINES:
                assert table_entry.flags & DeclFlags.HAS_DEFINITION


class TestInvariants:
    def test_completeness_and_soundness(self, gpad_dir):
        directory, module_map = gpad_dir
        assert_index_consistent(_semantic(directory, module_map), directory, module_map)
        assert_index_consistent(_lexical(directory, module_map), directory, module_map)

    def test_semantic_refines_lexical(self, gpad_dir):
        directory, module_map = gpad_dir
        semantic = _semantic(directory, module_map)
        definition = lookup_definition(semantic, "Gpad")
        assert definition in [m for m, _ in lookup(semantic, "Gpad")]

    def test_stripping_defines_matches_lexical(self, gpad_dir):
        directory, module_map = gpad_dir
        semantic, lexical = _semantic(directory, module_map), _lexical(directory, module_map)
        assert [e.identifier for e in semantic.entries] == [
            e.identifier for e in lexical.entries
        ]
        for sem_entry, lex_entry in zip(semantic.entries, lexical.entries):
            stripped = [
                (p.module_id, p.flags & ~PostingFlags.DEFINES) for p in sem_entry.postings
            ]
            assert stripped == [(p.module_id, p.flags) for p in lex_entry.postings]
