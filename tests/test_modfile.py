from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from modix import loader, modfile
from modix._wire import Reader, Writer, sealed
from modix.bench import CorpusSpec, build_rootmap, generate_corpus, open_corpus_session, write_corpus
from modix.cli import main
from modix.declang import (
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
)
from modix.errors import (
    BadMagic,
    BadVersion,
    CorruptModule,
    CorruptTable,
    HashMismatch,
    OdrInModule,
    OdrViolation,
)
from modix.gmi import INDEX_FILE_NAME, IndexFlavor, Posting, PostingFlags, build_index
from modix.gmi import index_file_name, load_index
from modix.interp import EvalResult, run_script
from modix.modfile import (
    PCH_FILE_NAME,
    DeclFlags,
    Entity,
    EntityKind,
    build_pch,
    compile_module,
    deserialize_decl,
    deserialize_module,
    decode_blob,
    encode_payload,
    fold_rows,
    merge_entities,
    read_module_summary,
    read_modules,
    split_blob,
)
from modix.loader import ROOTMAP_FILE_NAME, LoadStats, Resolution, ResolutionOutcome, Strategy
from modix.modulemap import FINAL_MAP_NAME, ModuleDef, load_modulemap
from conftest import build_random_corpus, encode_blob, outcome_signature
from test_declang import _decls


def _header(text, path="h.dh"):
    return parse_header(text, path)


def _module(name, *header_texts, imports=()):
    headers = [_header(t, f"h{i}.dh") for i, t in enumerate(header_texts)]
    return compile_module(name, headers, imports)


def _raw_module(keys, flags, spans, region, key_ends=None):
    """Module "M"'s file with the identifier table written as given, in the
    version 4 layout: `keys` (text or raw bytes) in the order given, their
    flags bytes and (blob_offset, blob_len) spans, and the blob region.
    `key_ends` replaces the ends the keys give.  Sealed, so the content
    hash holds and only the table is at fault."""
    heap = [key if isinstance(key, bytes) else key.encode("utf-8") for key in keys]
    w = Writer()
    w.raw(modfile.MAGIC)
    w.u32(modfile.VERSION)
    w.u64(0)
    w.lpstr("M")
    w.u32(0)  # no imports
    w.u32(len(keys))
    w.column("I", key_ends or itertools.accumulate(map(len, heap)))
    w.column("B", flags)
    w.column("Q", [offset for offset, _ in spans])
    w.column("I", [length for _, length in spans])
    w.raw(b"".join(heap))
    w.u64(len(region))
    w.raw(region)
    return sealed(w.getvalue())


class TestCompileAndSummary:
    def test_single_definition_flags(self):
        mf = read_module_summary(_module("M", "struct A { x: i32; };"))
        assert dict(zip(mf.rows, mf.flags)) == {"A": DeclFlags.HAS_DEFINITION}

    def test_definition_plus_forward_gets_both_flags(self):
        mf = read_module_summary(_module("M", "struct A;", "struct A { x: i32; };"))
        assert dict(zip(mf.rows, mf.flags)) == {"A": DeclFlags.HAS_DEFINITION | DeclFlags.HAS_FORWARD}

    def test_kind_flags(self):
        mf = read_module_summary(
            _module("M", "struct S;\nenum E { a };\nusing U = i32;\nfn f() -> i32;")
        )
        flags = dict(zip(mf.rows, mf.flags))
        assert flags["S"] == DeclFlags.HAS_FORWARD
        assert flags["E"] == DeclFlags.HAS_DEFINITION
        assert flags["U"] == DeclFlags.HAS_DEFINITION | DeclFlags.IS_ALIAS
        assert flags["f"] == DeclFlags.HAS_DEFINITION | DeclFlags.IS_FUNCTION

    def test_conflicting_definitions_raise(self):
        with pytest.raises(OdrInModule) as excinfo:
            _module("M", "struct A { x: i32; };", "struct A { x: i64; };")
        assert excinfo.value.name == "A"

    def test_identical_cross_header_duplicates_collapse(self):
        mf = read_module_summary(
            _module("M", "struct A { x: i32; };", "struct A { x: i32; };")
        )
        assert len(mf.rows) == 1

    def test_summary_round_trips_names_and_imports(self):
        data = _module("M", "struct B;\nstruct A { b: ptr<B>; };", imports=("Dep1", "Dep2"))
        mf = read_module_summary(data)
        assert mf.module_name == "M"
        assert mf.imports == ("Dep1", "Dep2")
        assert tuple(mf.rows) == ("A", "B")

    def test_self_import_rejected(self):
        with pytest.raises(ValueError):
            _module("M", "struct A;", imports=("M",))

    def test_table_strictly_sorted(self):
        data = _module("M", "struct Z;\nstruct A;\nstruct M;")
        mf = read_module_summary(data)
        names = list(mf.rows)
        assert names == sorted(names)

    def test_each_payload_is_encoded_at_most_once(self, monkeypatch):
        encode = modfile.encode_payload
        encoded = []

        def counted(decl):
            encoded.append(decl)
            return encode(decl)

        monkeypatch.setattr(modfile, "encode_payload", counted)
        headers = [
            _header("struct A;\nstruct A { x: i32; };\nstruct B;\nusing U = i32;", "a.dh"),
            _header("struct A { x: i32; };\nstruct A;\nfn f(i32) -> bool;", "b.dh"),
        ]
        mf = read_module_summary(compile_module("M", headers))
        # Every declaration but the forward met after A's definition, which
        # cannot become a row, is encoded, each once.
        items = [decl for header in headers for decl in header.items]
        assert encoded == items[:5] + items[6:]
        assert tuple(mf.rows) == ("A", "B", "U", "f")

    def test_no_absolute_paths_inside(self, tmp_path):
        ast = parse_header("struct A { x: i32; };", "sub/a.dh")
        data = compile_module("M", [ast])
        assert str(tmp_path).encode() not in data
        assert b"sub/a.dh" in data


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_module_summary(b"NOPE" + b"\x00" * 40)

    def test_bad_version(self):
        data = bytearray(_module("M", "struct A;"))
        data[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(BadVersion):
            read_module_summary(bytes(data))

    def test_truncated_file_is_corrupt_table(self):
        data = _module("M", "struct A { x: i32; };")
        with pytest.raises(CorruptTable):
            read_module_summary(data[: len(data) - 5])

    def test_trailing_garbage_is_corrupt_table(self):
        data = _module("M", "struct A;")
        with pytest.raises(CorruptTable):
            read_module_summary(data + b"x")

    def test_flipped_payload_byte_is_hash_mismatch(self):
        data = bytearray(_module("M", "struct A { x: i32; };"))
        data[-1] ^= 0xFF
        with pytest.raises(HashMismatch):
            read_module_summary(bytes(data))

    def test_version_1_rejected(self):
        data = bytearray(_module("M", "struct A;"))
        data[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(BadVersion):
            read_module_summary(bytes(data))

    def test_version_2_rejected(self):
        # Rehashed, so only the version tells it apart.
        data = bytearray(_module("M", "struct A;"))
        data[4:8] = (2).to_bytes(4, "little")
        with pytest.raises(BadVersion, match="unsupported module file version 2"):
            read_module_summary(sealed(data))

    def test_version_3_rejected(self):
        # Version 3 wrote each table row whole; version 4 writes columns.
        data = bytearray(_module("M", "struct A;"))
        data[4:8] = (3).to_bytes(4, "little")
        with pytest.raises(BadVersion, match="unsupported module file version 3"):
            read_module_summary(sealed(data))

    def test_unknown_flag_bits_rejected(self):
        (decl,) = _header("struct A;").items
        data = modfile._emit("A", (), [("A", DeclFlags(0x81), encode_blob(decl))])
        stored, computed = modfile.content_hashes(data)
        assert stored == computed
        with pytest.raises(CorruptTable, match="unknown flag bits in 0x81"):
            read_module_summary(data)

    def test_flags_that_name_no_kind_rejected(self):
        # Known bits only, but no declaration kind has them: no flags, a bare
        # IS_ALIAS, alias and function at once, a forward beside IS_FUNCTION.
        (decl,) = _header("struct A;").items
        for flags in (0x00, 0x04, 0x0D, 0x0A):
            data = modfile._emit("A", (), [("A", DeclFlags(flags), encode_blob(decl))])
            with pytest.raises(CorruptTable, match=f"flags {flags:#04x} are never written"):
                read_module_summary(data)

    @pytest.mark.parametrize("keys, flags, spans, key_ends, problem", [
        (["B", "A"], [2, 2], [(0, 1), (0, 1)], None, "table keys not strictly increasing at 'A'"),
        (["A", "A"], [2, 2], [(0, 1), (0, 1)], None, "table keys not strictly increasing at 'A'"),
        (["\u00e9", "z"], [2, 2], [(0, 1), (0, 1)], None, "table keys not strictly increasing at 'z'"),
        # The key heap of a two-row table starts at byte 63.
        ([b"A", b"\xff"], [2, 2], [(0, 1), (0, 1)], None, "invalid UTF-8 at byte 64"),
        # An "\u00e9" split between two keys: the heap decodes, its keys do not.
        ([b"a\xc3", b"\xa9b"], [2, 2], [(0, 1), (0, 1)], None, "invalid UTF-8 at byte 63"),
        (["A", "B"], [2, 0x81], [(0, 1), (0, 1)], None, "unknown flag bits in 0x81"),
        (["A", "B"], [2, 0x0D], [(0, 1), (0, 1)], None, "flags 0x0d are never written"),
        (["A", "B"], [2, 2], [(0, 1), (1, 1)], None, "blob for 'B' out of range"),
        (["A", "B"], [2, 2], [(0, 1), (2**64 - 1, 1)], None, "blob for 'B' out of range"),
        # Only version 4 has these: a key_end that decreases, or that runs
        # past the heap and into the blob region's length.
        (["A", "B"], [2, 2], [(0, 1), (0, 1)], [2, 1], "table key ends decrease at row 1"),
        (["A", "B"], [2, 2], [(0, 1), (0, 1)], [1, 9], "trailing bytes|truncated"),
    ], ids=["order", "duplicate", "utf8-order", "bad-utf8", "split-char", "flag-bits",
            "flags-no-kind", "blob-range", "blob-overflow", "key-end-decreases", "key-end-past-heap"])
    def test_each_row_fault_raises_at_load(self, keys, flags, spans, key_ends, problem):
        data = _raw_module(keys, flags, spans, b"\x00", key_ends)
        with pytest.raises(CorruptTable, match=problem):
            read_module_summary(data)

    def test_raw_module_writes_the_format(self):
        (decl,) = _header("struct A;").items
        blob = encode_blob(decl)
        data = _raw_module(["A"], [DeclFlags.HAS_FORWARD], [(0, len(blob))], blob)
        assert data == modfile._emit("M", (), [("A", DeclFlags.HAS_FORWARD, blob)])

    def test_every_single_bit_flip_is_rejected(self):
        data = _module("M", "struct A { x: i32; p: ptr<B>; };", "struct B;\nenum E { a };",
                       imports=("N",))
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                read_module_summary(bytes(flipped))
            except CorruptModule:
                continue
            except Exception as exc:
                pytest.fail(f"flipping bit {bit} raised {type(exc).__name__}: {exc}")
            pytest.fail(f"flipping bit {bit} was accepted")


class TestContentHash:
    def test_stored_hash_is_blake2b_64_with_the_field_zeroed(self):
        data = _module("M", "struct A { x: i32; };", "struct B;", imports=("N",))
        zeroed = data[:8] + bytes(8) + data[16:]
        digest = hashlib.blake2b(zeroed, digest_size=8).digest()
        assert data[8:16] == digest
        assert read_module_summary(data).content_hash == int.from_bytes(digest, "little")


class TestDeserialize:
    def test_round_trip_equal_decl(self):
        src = "struct A { x: i32; p: ptr<B>; };"
        header = _header(src)
        mf = read_module_summary(compile_module("M", [header]))
        assert deserialize_decl(mf, mf.rows["A"])[0] == header.items[0]

    def test_forward_only_round_trips_as_forward(self):
        mf = read_module_summary(_module("M", "struct A;"))
        decl, _ = deserialize_decl(mf, mf.rows["A"])
        assert decl.kind is DeclKind.STRUCT_FWD

    def test_bytes_accounting_is_exact(self):
        data = _module("M", "struct A { x: i32; };\nenum E { a, b };")
        mf = read_module_summary(data)
        blob_total = sum(mf.blob_lens)
        assert mf.summary_bytes + blob_total == len(data)
        assert len(mf.blob_region) == blob_total

    def test_find_agrees_with_linear_scan(self):
        names = [f"n{i:02d}" for i in range(0, 40, 3)]
        text = "".join(f"struct {n};\n" for n in names)
        mf = read_module_summary(_module("M", text))
        whole = deserialize_module(mf)
        for probe in names + ["n00x", "a", "zzz", ""]:
            linear = next((row for row, (name, _, _) in enumerate(whole) if name == probe), None)
            assert mf.rows.get(probe) == linear


def _def(name, field_type="i32", origin=("h.dh", 1)):
    return Decl(
        name,
        DeclKind.STRUCT_DEF,
        fields=(StructField("x", TypeRef(field_type)),),
        origin=origin,
    )


def _c(decl, module):
    """A merge candidate: the decl, its module and its payload bytes."""
    return (decl, module, encode_payload(decl))


_ORDER = {f"M{i}": i for i in range(10)}


class TestMergeEntities:
    def test_definition_wins_over_forwards(self):
        fwd = Decl("Gpad", DeclKind.STRUCT_FWD)
        entity = merge_entities(
            [_c(_def("Gpad"), "M1"), _c(fwd, "M2"), _c(fwd, "M3")], _ORDER
        )
        assert entity.kind is EntityKind.DEFINITION
        assert entity.defining_module == "M1"

    def test_identical_definitions_take_lowest_module_id(self):
        entity = merge_entities([_c(_def("A"), "M2"), _c(_def("A"), "M1")], _ORDER)
        assert entity.defining_module == "M1"

    def test_differing_definitions_raise_naming_both(self):
        with pytest.raises(OdrViolation) as excinfo:
            merge_entities([_c(_def("A", "i32"), "M1"), _c(_def("A", "i64"), "M2")], _ORDER)
        assert {excinfo.value.module_a, excinfo.value.module_b} == {"M1", "M2"}

    def test_origin_differences_are_not_odr_violations(self):
        entity = merge_entities(
            [_c(_def("A", origin=("a.dh", 1)), "M1"), _c(_def("A", origin=("b.dh", 9)), "M2")],
            _ORDER,
        )
        assert entity.kind is EntityKind.DEFINITION
        assert entity.defining_module == "M1"

    def test_function_outranks_alias_outranks_forward(self):
        fn = Decl("N", DeclKind.FUNC_DECL, returns=TypeRef("i32"))
        alias = Decl("N", DeclKind.ALIAS, alias_target=TypeRef("i32"))
        fwd = Decl("N", DeclKind.STRUCT_FWD)
        assert merge_entities([_c(fwd, "M1"), _c(alias, "M2")], _ORDER).kind is EntityKind.ALIAS
        assert (
            merge_entities([_c(alias, "M1"), _c(fn, "M2"), _c(fwd, "M3")], _ORDER).kind
            is EntityKind.FUNCTION
        )

    def test_conflicting_functions_raise(self):
        f1 = Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i32"))
        f2 = Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i64"))
        with pytest.raises(OdrViolation):
            merge_entities([_c(f1, "M1"), _c(f2, "M2")], _ORDER)

    def test_no_candidates_raise(self):
        with pytest.raises(ValueError, match="at least one declaration"):
            merge_entities([], {})

    def test_module_missing_from_the_order_ranks_last(self):
        # `__pch__`, or a checkout of a module mapped after the index was built.
        candidates = [_c(_def("A"), modfile.PCH_MODULE_NAME), _c(_def("A"), "M9")]
        assert merge_entities(candidates, _ORDER).defining_module == "M9"

    def test_order_insensitive(self):
        decls = [
            _c(_def("A"), "M3"),
            _c(_def("A"), "M1"),
            _c(Decl("A", DeclKind.STRUCT_FWD), "M2"),
        ]
        baseline = merge_entities(decls, _ORDER)
        for perm in itertools.permutations(decls):
            entity = merge_entities(list(perm), _ORDER)
            assert entity.kind == baseline.kind
            assert entity.canonical_payload == baseline.canonical_payload
            assert entity.defining_module == baseline.defining_module

    def test_first_conflict_in_module_order_is_reported(self):
        # Two conflicting kinds: the struct pair (M0, M1) is met first in
        # module order, whatever order the candidates arrive in.
        sources = [
            ("struct X { a: i32; };", "M0"), ("struct X { a: i64; };", "M1"),
            ("using X = i32;", "M2"), ("using X = i64;", "M3"),
        ]
        candidates = [_c(_header(text).items[0], module) for text, module in sources]
        for perm in itertools.permutations(candidates):
            with pytest.raises(OdrViolation) as excinfo:
                merge_entities(list(perm), _ORDER)
            error = excinfo.value
            assert (error.name, error.module_a, error.module_b) == ("X", "M0", "M1")

    def test_merge_hashes_its_kinds_in_c(self):
        # DeclKind and EntityKind are IntEnums, so keying `_KINDS` and the
        # per-kind groups calls no Python-level `__hash__`.
        fn = Decl("N", DeclKind.FUNC_DECL, returns=TypeRef("i32"))
        candidates = [_c(_def("N"), "M1"), _c(fn, "M2"), _c(Decl("N", DeclKind.STRUCT_FWD), "M3")]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                calls.append(frame.f_code.co_filename)

        sys.setprofile(profile)
        try:
            merge_entities(candidates, _ORDER)
        finally:
            sys.setprofile(None)
        assert calls == []


class TestBuildPch:
    def _mf(self, name, *texts, imports=()):
        return read_module_summary(_module(name, *texts, imports=imports))

    def test_disjoint_modules_sum_their_names(self):
        pch = read_module_summary(
            build_pch(fold_rows([self._mf("M0", "struct A;"), self._mf("M1", "struct B;")]))
        )
        assert pch.module_name == "__pch__"
        assert pch.imports == ()
        assert tuple(pch.rows) == ("A", "B")

    def test_forwards_collapse_into_the_definition(self):
        mods = [self._mf("M0", "struct Gpad { x: i32; };")]
        mods += [self._mf(f"M{i}", "struct Gpad;") for i in range(1, 6)]
        pch = read_module_summary(build_pch(fold_rows(mods)))
        assert dict(zip(pch.rows, pch.flags)) == {"Gpad": DeclFlags.HAS_DEFINITION}

    def test_duplicated_content_dedups(self):
        shared = "struct Boost { x: i64; };"
        mods = [
            self._mf("M0", shared + "struct A;"),
            self._mf("M1", shared + "struct B;"),
        ]
        pch = read_module_summary(build_pch(fold_rows(mods)))
        assert len(pch.rows) == 3
        assert len(pch.rows) < sum(len(m.rows) for m in mods)

    def test_odr_violation_propagates(self):
        mods = [
            self._mf("M0", "struct A { x: i32; };"),
            self._mf("M1", "struct A { x: i64; };"),
        ]
        with pytest.raises(OdrViolation):
            build_pch(fold_rows(mods))

    def test_odr_violation_is_raised_without_reading_further(self):
        def stream():
            yield self._mf("M0", "struct A { x: i32; };")
            yield self._mf("M1", "struct A { x: i64; };")
            raise AssertionError("the stream was read past the conflict")

        with pytest.raises(OdrViolation) as excinfo:
            build_pch(fold_rows(stream()))
        assert (excinfo.value.module_a, excinfo.value.module_b) == ("M0", "M1")

    def test_pch_round_trips(self):
        mods = [self._mf("M0", "struct A { x: i32; };"), self._mf("M1", "struct A;")]
        pch = read_module_summary(build_pch(fold_rows(mods)))
        assert deserialize_decl(pch, pch.rows["A"])[0].kind is DeclKind.STRUCT_DEF


def _reference_pch(modules) -> bytes:
    """The `__pch__` build as format 2 needed it, kept as the reference: decode
    every blob, fold the declarations by kind in module order, and re-encode
    each name's winner."""
    merged: dict[str, dict[EntityKind, tuple]] = {}
    for mf in modules:
        for name, row in mf.rows.items():
            decl, payload = deserialize_decl(mf, row)
            firsts = merged.setdefault(name, {})
            first = firsts.setdefault(modfile._KINDS[decl.kind].entity, (decl, mf.module_name, payload))
            if first[2] != payload:
                raise OdrViolation(name, first[1], mf.module_name)
    rows = []
    for name, firsts in merged.items():
        decl = firsts[max(firsts)][0]
        rows.append((name, modfile._KINDS[decl.kind].flags, encode_blob(decl)))
    return modfile._emit(modfile.PCH_MODULE_NAME, (), rows)


def _outcome(build, modules):
    """The bytes a build returns, or the OdrViolation it raises."""
    try:
        return build(modules)
    except OdrViolation as exc:
        return ("odr", exc.name, exc.module_a, exc.module_b)


# Sources that often share a name across modules, as the same kind with the
# same or a different payload, or as kinds of different merge rank.
_clashing_decl = st.sampled_from([
    "struct {n} {{ x: i32; }};", "struct {n} {{ x: i64; }};", "struct {n};",
    "enum {n} {{ a }};", "using {n} = i32;", "using {n} = ptr<i32>;",
    "fn {n}() -> i32;", "fn {n}(i32) -> i32;",
])
_clashing_module = st.dictionaries(st.sampled_from("ABCD"), _clashing_decl, min_size=1)


_FOLD_SOURCES = [
    ("M0", {"t.dh": "struct A { x: i32; };\nstruct B;\n"}),
    ("M1", {"t.dh": "struct A { x: i32; };\nstruct B { a: ptr<A>; };\nusing T = i32;\n"}),
]


def _counted_folds(monkeypatch) -> list:
    """Record each call of `modfile.fold_rows`."""
    calls = []
    fold = modfile.fold_rows

    def counted(modules):
        calls.append(modules)
        return fold(modules)

    monkeypatch.setattr(modfile, "fold_rows", counted)
    return calls


class TestRawFold:
    """`fold_rows` folds raw rows: the `build_pch` of its release equals the
    decode-and-re-encode reference byte for byte, it raises the same
    OdrViolation, it decodes and encodes nothing, and a build runs it once."""

    def test_equals_the_reference_on_corpus12(self, corpus12):
        names = load_modulemap(corpus12 / FINAL_MAP_NAME).names
        modules = list(read_modules(corpus12, names))
        assert build_pch(fold_rows(modules)) == _reference_pch(modules) == (corpus12 / PCH_FILE_NAME).read_bytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_reference_on_random_corpora(self, tmp_path_factory, seed):
        corpus = build_random_corpus(random.Random(seed), tmp_path_factory.mktemp("fold"))
        modules = list(read_modules(corpus.dir, corpus.map.names))
        assert build_pch(fold_rows(modules)) == _reference_pch(modules)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_clashing_module, min_size=1, max_size=5))
    def test_same_outcome_as_the_reference_on_clashing_modules(self, sources):
        modules = [
            read_module_summary(compile_module(f"M{m}", [_header(
                "\n".join(line.format(n=name) for name, line in decls.items()), f"h{m}.dh"
            )]))
            for m, decls in enumerate(sources)
        ]
        assert _outcome(lambda modules: build_pch(fold_rows(modules)), modules) == _outcome(_reference_pch, modules)

    def test_builds_decode_and_encode_nothing(self, corpus12, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a release build decoded or encoded a declaration")

        module_map = load_modulemap(corpus12 / FINAL_MAP_NAME)
        modules = list(read_modules(corpus12, module_map.names))
        encode, compile_module = modfile.encode_payload, modfile.compile_module
        for name in ("decode_blob", "encode_payload", "deserialize_decl"):
            monkeypatch.setattr(modfile, name, refuse)
        release = fold_rows(modules)
        assert build_pch(release) == (corpus12 / PCH_FILE_NAME).read_bytes()
        assert build_rootmap(module_map, release) == (corpus12 / ROOTMAP_FILE_NAME).read_text("utf-8")
        for flavor in IndexFlavor:
            index = (corpus12 / index_file_name(flavor)).read_bytes()
            assert build_index(module_map, release, flavor) == index

        def compile_encoding(*args):
            # Compiling encodes each declaration; nothing after it may.
            modfile.encode_payload = encode
            try:
                return compile_module(*args)
            finally:
                modfile.encode_payload = refuse

        monkeypatch.setattr(modfile, "compile_module", compile_encoding)
        spec = CorpusSpec(
            n_modules=12, defs_per_module=3, fwd_fanout=3,
            dup_fraction=0.5, import_density=1.0, seed=7,
        )
        generate_corpus(spec, tmp_path)  # corpus12, through `write_corpus`
        for path in corpus12.iterdir():
            if path.is_file():
                assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_write_corpus_folds_once(self, tmp_path, monkeypatch):
        folds = _counted_folds(monkeypatch)
        write_corpus(tmp_path, _FOLD_SOURCES)
        assert len(folds) == 1

    def test_each_cli_step_folds_once(self, tmp_path, monkeypatch, capsys):
        write_corpus(tmp_path, _FOLD_SOURCES)
        folds = _counted_folds(monkeypatch)
        for argv in (
            ["compile", str(tmp_path / FINAL_MAP_NAME), "-o", str(tmp_path)], ["pch", str(tmp_path)],
            ["index", str(tmp_path), "--semantic"], ["index", str(tmp_path), "--lexical"],
        ):
            folds.clear()
            assert main(argv) == 0
            assert len(folds) == 1, argv

    @pytest.mark.parametrize("flags, blob, problem", [
        # A struct definition's blob in a forward declaration's row.
        (DeclFlags.HAS_FORWARD, encode_blob(_def("A")), "does not match its flags"),
        # An unknown tag after the 12-byte origin ("h.dh", line 1).
        (DeclFlags.HAS_DEFINITION, encode_blob(_def("A"))[:12] + b"\x63", "does not match its flags"),
        (DeclFlags.HAS_DEFINITION, b"\xff\x00\x00\x00h.dh\x01\x00\x00\x00\x01", "leaves no payload"),
        (DeclFlags.HAS_DEFINITION, b"\x04\x00\x00\x00h.dh\x01\x00\x00\x00", "leaves no payload"),
        (DeclFlags.HAS_DEFINITION, b"\x02\x00\x00\x00\xff\xfe\x01\x00\x00\x00\x01", "damaged blob head"),
        (DeclFlags.HAS_DEFINITION, b"\x02\x00", "damaged blob head"),
    ], ids=["kind", "tag", "long-origin", "no-payload", "bad-utf8", "short"])
    def test_hash_valid_row_with_a_bad_head_is_corrupt(self, flags, blob, problem):
        mf = read_module_summary(modfile._emit("M", (), [("A", flags, blob)]))
        with pytest.raises(CorruptTable, match=problem):
            fold_rows([mf])


class TestLeanValues:
    """Decoded values are held once and lean: one `str` per spelling, one
    summary at a time while a release is merged, and no per-instance
    `__dict__`.  These pin sharing, not byte counts."""

    def test_decoded_name_is_its_table_key(self, corpus12):
        for path in sorted(corpus12.glob("*.pcm")):
            mf = read_module_summary(path.read_bytes())
            for key, row in mf.rows.items():
                decl, _ = deserialize_decl(mf, row)
                assert decl.name is key

    def test_one_str_per_spelling_across_modules(self, corpus12):
        first: dict[str, str] = {}
        spellings = 0
        for path in sorted(corpus12.glob("*.pcm")):
            mf = read_module_summary(path.read_bytes())
            for key, row in mf.rows.items():
                decl, _ = deserialize_decl(mf, row)
                for text in (key, decl.name, *(f.type.base for f in decl.fields)):
                    assert first.setdefault(text, text) is text
                    spellings += 1
        assert spellings > 2 * len(first)

    def test_fold_rows_consumes_a_stream(self, corpus12):
        names = load_modulemap(corpus12 / FINAL_MAP_NAME).names
        modules = list(read_modules(corpus12, names))
        assert fold_rows(iter(modules)) == fold_rows(modules)
        assert build_pch(fold_rows(read_modules(corpus12, names))) == (corpus12 / PCH_FILE_NAME).read_bytes()

    def test_fold_rows_shares_each_module_posting(self, corpus12):
        names = load_modulemap(corpus12 / FINAL_MAP_NAME).names
        postings = fold_rows(read_modules(corpus12, names)).postings
        first: dict[tuple, tuple] = {}
        for posting in itertools.chain.from_iterable(postings.values()):
            assert first.setdefault(posting, posting) is posting
        assert len(first) < sum(map(len, postings.values()))

    @pytest.mark.parametrize("flavor", list(IndexFlavor), ids=lambda flavor: flavor.name.lower())
    def test_build_index_holds_one_summary_at_a_time(self, corpus12, flavor):
        """The index is built from a release folded off a stream, and the
        fold, the one step that reads summaries, holds one at a time."""
        module_map = load_modulemap(corpus12 / FINAL_MAP_NAME)
        alive = []

        def stream():
            refs = []
            for mf in read_modules(corpus12, module_map.names):
                refs.append(weakref.ref(mf))
                yield mf
            del mf
            alive.extend(ref for ref in refs if ref() is not None)

        index = build_index(module_map, fold_rows(stream()), flavor)
        assert index == (corpus12 / index_file_name(flavor)).read_bytes()
        assert len(alive) == 1  # the last summary, still the fold's loop variable

    def test_preload_all_shares_decoded_values_and_drops_its_memo(self, corpus12, monkeypatch):
        """Candidates whose payloads are byte-identical share the payload and
        the decoded fields; candidates with identical blob heads share the
        origin.  The memo behind that sharing is gone when the open returns."""
        memos = []
        memo_type = modfile.DecodeMemo

        def recorded():
            memo = memo_type()
            memos.append(weakref.ref(memo))
            return memo

        monkeypatch.setattr(modfile, "DecodeMemo", recorded)
        session = open_corpus_session(corpus12, Strategy.PRELOAD_ALL)
        assert len(memos) == 1 and memos[0]() is None
        by_payload: dict[bytes, tuple] = {}
        by_origin: dict[tuple[str, int], tuple[str, int]] = {}
        shared_fields = 0
        for decl, module, payload in (c for cs in session._resident.values() for c in cs):
            first_decl, first_module, first_payload = by_payload.setdefault(payload, (decl, module, payload))
            assert payload is first_payload and decl.fields is first_decl.fields
            shared_fields += bool(decl.fields) and module != first_module
            assert by_origin.setdefault(decl.origin, decl.origin) is decl.origin
        assert shared_fields > 0 and len(by_origin) < len(by_payload)

    def test_textual_parses_each_struct_body_once_per_session(self, corpus12, monkeypatch):
        """A textual session parses each struct body once: declarations whose
        headers repeat a body share one `fields` tuple.  Sessions share no
        memo, and a dropped session's memo is freed.  A payload is encoded at
        its name's merge, once per merged candidate, not at each commit, and
        the merge drops the name's resident candidates."""
        rootmap = (corpus12 / ROOTMAP_FILE_NAME).read_text("utf-8")
        names = [line.split()[0] for line in rootmap.splitlines()][::4]
        preload = open_corpus_session(corpus12, Strategy.PRELOAD_ALL)
        expected = {(name, need): outcome_signature(preload, name, need) for name in names for need in Need}
        encoded: list[str] = []
        merged: list[list] = []  # each merge's candidates
        encode, merge = modfile.encode_payload, loader.merge_entities

        def counted(decl):
            encoded.append(decl.name)
            return encode(decl)

        def recorded(candidates, order):
            merged.append(candidates)
            return merge(candidates, order)

        monkeypatch.setattr(modfile, "encode_payload", counted)
        monkeypatch.setattr(loader, "merge_entities", recorded)
        session = open_corpus_session(corpus12, Strategy.TEXTUAL)
        for name in names:
            before, merges = len(encoded), len(merged)
            for need in Need:
                assert outcome_signature(session, name, need) == expected[name, need]
            (candidates,) = merged[merges:]
            assert encoded[before:] == [name] * len(candidates)
            assert name not in session._resident
        committed = [c for cs in (*merged, *session._resident.values()) for c in cs]
        assert len(encoded) < len(committed)

        by_body: dict[tuple, tuple[tuple, str]] = {}
        shared = 0
        for decl, header, _ in committed:
            if decl.fields:
                first, first_header = by_body.setdefault(decl.fields, (decl.fields, header))
                assert decl.fields is first
                shared += header != first_header
        assert shared > 0

        other = open_corpus_session(corpus12, Strategy.TEXTUAL)
        merges = len(merged)
        for name in names:
            other.resolve(name, Need.DEFINITION)
        assert other._fields is not session._fields
        mine = {id(fields) for fields, _ in by_body.values()}
        theirs = (*merged[merges:], *other._resident.values())
        assert not mine & {id(d.fields) for cs in theirs for d, _, _ in cs if d.fields}
        memo = weakref.ref(session._fields)
        del session
        gc.collect()
        assert memo() is None

    def test_value_types_have_no_dict(self, corpus12):
        mf = read_module_summary((corpus12 / "M0.pcm").read_bytes())
        decls = [deserialize_decl(mf, row)[0] for row in mf.rows.values()]
        struct = next(d for d in decls if d.fields)
        values = [
            *decls, *struct.fields, struct.fields[0].type,
            merge_entities([(struct, "M0", encode_payload(struct))], {}),
            *load_index((corpus12 / INDEX_FILE_NAME).read_bytes()).entry(struct.name),
            LoadStats(),
        ]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    @pytest.mark.parametrize(
        "hand, text",
        [
            (Decl("S", DeclKind.STRUCT_DEF, fields=(StructField("p", TypeRef("T", 1)),),
                  origin=("h.dh", 1)), "struct S { p: ptr<T>; };"),
            (Decl("S", DeclKind.STRUCT_FWD, origin=("h.dh", 1)), "struct S;"),
            (Decl("E", DeclKind.ENUM_DEF, enumerators=("a", "b"), origin=("h.dh", 1)),
             "enum E { a, b };"),
            (Decl("A", DeclKind.ALIAS, alias_target=TypeRef("i64", 2), origin=("h.dh", 1)),
             "using A = ptr<ptr<i64>>;"),
            (Decl("f", DeclKind.FUNC_DECL, params=(TypeRef("i32"), TypeRef("T", 1)),
                  returns=TypeRef("bool"), origin=("h.dh", 1)), "fn f(i32, ptr<T>) -> bool;"),
        ],
        ids=["struct", "forward", "enum", "alias", "function"],
    )
    def test_hand_built_decl_equals_parsed_and_decoded(self, hand, text):
        (parsed,) = _header(text).items
        decoded, _ = decode_blob(encode_blob(parsed))
        assert hand == parsed == decoded
        assert hash(hand) == hash(parsed) == hash(decoded)

    @pytest.fixture(scope="class")
    def built_and_read(self, tmp_path_factory):
        """Each value type, built by hand and as modix parses, decodes or
        evaluates it over a one-module release, keyed by type name."""
        root = tmp_path_factory.mktemp("one-module")
        write_corpus(root, [("M", {"h.dh": "struct S { p: ptr<T>; };\nstruct T;\n"})])
        mf = read_module_summary((root / "M.pcm").read_bytes())
        index = load_index((root / INDEX_FILE_NAME).read_bytes())
        session = open_corpus_session(root, Strategy.PRELOAD_ALL)
        resolution = session.resolve("S", Need.DEFINITION)
        before = session.stats()
        (result,) = run_script(session, "sizeof(S);")
        cost = session.stats() - before
        decoded, _ = deserialize_decl(mf, mf.rows["S"])

        ref = TypeRef("T", 1)
        decl = Decl("S", DeclKind.STRUCT_DEF, fields=(StructField("p", ref),), origin=("h.dh", 1))
        entity = Entity("S", EntityKind.DEFINITION, encode_payload(decl), "M", decl)
        pairs = [
            (ref, decoded.fields[0].type),
            (decl.fields[0], decoded.fields[0]),
            (decl, decoded),
            (HeaderAST("h.dh", (Decl("S", DeclKind.STRUCT_FWD, origin=("h.dh", 2)),), ("x.dh",)),
             parse_header('include "x.dh";\nstruct S;\n', "h.dh")),
            (NewStmt("S"), parse_statement("new S;")),
            (DeclareStmt("v", TypeRef("S", 1)), parse_statement("declare v: ptr<S>;")),
            (SizeOfStmt("S"), parse_statement("sizeof(S);")),
            (CallStmt("f"), parse_statement("call f;")),
            (DirectiveStmt("stats"), parse_statement(".stats")),
            (ModuleDef("M", ("M/h.dh",)), load_modulemap(root / FINAL_MAP_NAME).defs[0]),
            (entity, resolution.entity),
            (Posting("M", PostingFlags.MENTIONS | PostingFlags.DEFINES), index.entry("S")[0]),
            (LoadStats(lookups=1), cost),
            (Resolution(ResolutionOutcome.RESOLVED, entity), resolution),
            (EvalResult(True, 8), result),
        ]
        return {type(hand).__name__: (hand, read) for hand, read in pairs}

    @pytest.mark.parametrize("type_name", [
        "TypeRef", "StructField", "Decl", "HeaderAST", "NewStmt", "DeclareStmt", "SizeOfStmt",
        "CallStmt", "DirectiveStmt", "ModuleDef", "Entity", "Posting",
        "LoadStats", "Resolution", "EvalResult",
    ])
    def test_value_type_equals_and_hashes_by_value(self, built_and_read, type_name):
        """Value types are slotted and not frozen, so `unsafe_hash=True` is
        what keeps them hashable: without it `__hash__` is None."""
        hand, read = built_and_read[type_name]
        assert type(read) is type(hand)
        assert hand == read
        assert hash(hand) == hash(read)
        assert not hasattr(read, "__dict__")


_names = st.text(alphabet="mnopq", min_size=1, max_size=4).map(lambda s: "d_" + s)


@st.composite
def _random_module_source(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    lines = []
    for name in names:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            count = draw(st.integers(0, 3))
            fields = " ".join(f"f{i}: i32;" for i in range(count))
            lines.append(f"struct {name} {{ {fields} }};")
        elif kind == 1:
            lines.append(f"struct {name};")
        elif kind == 2:
            lines.append(f"enum {name} {{ a, b }};")
        else:
            lines.append(f"using {name} = ptr<i64>;")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_random_module_source())
def test_compile_round_trip_property(source):
    header = parse_header(source, "h.dh")
    mf = read_module_summary(compile_module("M", [header]))
    by_name = {}
    for decl in header.items:
        if decl.name not in by_name or by_name[decl.name].is_forward:
            by_name[decl.name] = decl
    assert set(mf.rows) == set(by_name)
    for name, expected in by_name.items():
        decl, _ = deserialize_decl(mf, mf.rows[name])
        assert decl == expected
        assert encode_blob(decl) == encode_blob(expected)


def _assert_rows_slice_their_payloads(corpus_dir) -> int:
    """Every row of every module file: the payload sliced from its blob's
    head is `encode_payload` of the decoded declaration, and what decoding
    returns.  Returns the number of rows."""
    rows = 0
    for path in sorted(corpus_dir.glob("*.pcm")):
        mf = read_module_summary(path.read_bytes())
        for (_, _, blob), row in zip(mf.blobs(), mf.rows.values()):
            decl, payload = deserialize_decl(mf, row)
            assert split_blob(blob) == (decl.origin[0], encode_payload(decl))
            assert payload == encode_payload(decl)
            rows += 1
    return rows


def test_every_corpus_payload_is_its_blob_slice(corpus12):
    assert _assert_rows_slice_their_payloads(corpus12) > 100


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_random_corpus_payload_is_its_blob_slice(tmp_path_factory, seed):
    corpus = build_random_corpus(random.Random(seed), tmp_path_factory.mktemp("slice"))
    assert _assert_rows_slice_their_payloads(corpus.dir) > 0


@settings(max_examples=200, deadline=None)
@given(_names.flatmap(_decls), st.text(max_size=8), st.integers(0, 2**32 - 1))
def test_blob_payload_property(decl, origin_path, origin_line):
    decl = dataclasses.replace(decl, origin=(origin_path, origin_line))
    blob = encode_blob(decl)
    payload = encode_payload(decl)
    assert decode_blob(blob) == (decl, payload)
    assert split_blob(blob) == (origin_path, payload)
    flags = modfile._KINDS[decl.kind].flags
    mf = read_module_summary(modfile._emit("M", (), [(decl.name, flags, blob)]))
    assert deserialize_decl(mf, 0) == (decl, payload)


# --- the call-light decoder against the one it replaced ---


def _reference_decode(blob: bytes) -> tuple[Decl, bytes]:
    """`decode_blob` as format 4 first had it, one `Reader` call per field,
    kept as the reference for the in-place decoder."""

    def read_type(r: Reader) -> TypeRef:
        indirection = r.u32()
        return TypeRef(r.lpstr(), indirection)

    r = Reader(blob)
    origin = (r.lpstr(), r.u32())
    payload_start = r.pos
    tag = r.u8()
    kind = modfile._TAG_KINDS.get(tag)
    if kind is None:
        raise CorruptTable(f"unknown declaration tag {tag}")
    name = r.lpstr()
    fields: tuple[StructField, ...] = ()
    enumerators: tuple[str, ...] = ()
    alias_target = None
    params: tuple[TypeRef, ...] = ()
    returns = None
    if kind is DeclKind.STRUCT_DEF:
        fields = tuple(StructField(r.lpstr(), read_type(r)) for _ in range(r.u32()))
    elif kind is DeclKind.ENUM_DEF:
        enumerators = tuple(r.lpstr() for _ in range(r.u32()))
    elif kind is DeclKind.ALIAS:
        alias_target = read_type(r)
    elif kind is DeclKind.FUNC_DECL:
        params = tuple(read_type(r) for _ in range(r.u32()))
        returns = read_type(r)
    if not r.at_end():
        raise CorruptTable("trailing bytes after declaration")
    decl = Decl(name, kind, fields, enumerators, alias_target, params, returns, origin)
    return decl, blob[payload_start:]


def _decoded(decode, blob):
    """What a decoder returns for `blob`, or the class and message it raises."""
    try:
        return decode(blob)
    except Exception as exc:
        return type(exc), str(exc)


def _strings(decl: Decl) -> list[str]:
    """Every string a decoded declaration holds."""
    types = [f.type for f in decl.fields] + list(decl.params)
    types += [ref for ref in (decl.alias_target, decl.returns) if ref is not None]
    return [decl.name, decl.origin[0], *(f.name for f in decl.fields), *decl.enumerators,
            *(ref.base for ref in types)]


def _assert_decoders_agree(blob: bytes) -> None:
    decoded = _decoded(decode_blob, blob)
    assert decoded == _decoded(_reference_decode, blob), blob
    if isinstance(decoded[0], Decl):
        assert all(sys.intern(text) is text for text in _strings(decoded[0]))


# Any text, non-ASCII included, in every name and in the origin.
_any_text = st.text(max_size=4)


@st.composite
def _any_blob(draw):
    decl = draw(_any_text.flatmap(lambda name: _decls(name, _any_text)))
    origin = (draw(st.text(max_size=6)), draw(st.integers(0, 2**32 - 1)))
    return encode_blob(dataclasses.replace(decl, origin=origin))


class TestDecoderAgreesWithReference:
    """`decode_blob` returns what the `Reader` decoder returned, or raises
    the same class with the same message, for every kind, every truncation,
    single-byte mutations and trailing bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_any_blob())
    def test_every_truncation(self, blob):
        assert decode_blob(blob) == _reference_decode(blob)
        for cut in range(len(blob) + 1):
            _assert_decoders_agree(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(_any_blob(), st.data())
    def test_single_byte_mutations(self, blob, data):
        for _ in range(8):
            at = data.draw(st.integers(0, len(blob) - 1))
            value = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 0x7F, 0x80, 0xC3, 0xFF]))
            _assert_decoders_agree(blob[:at] + bytes((value,)) + blob[at + 1:])

    @settings(max_examples=200, deadline=None)
    @given(_any_blob(), st.binary(min_size=1, max_size=8))
    def test_trailing_bytes(self, blob, tail):
        _assert_decoders_agree(blob + tail)

    def test_every_kind_is_drawn(self):
        kinds = set()

        @settings(max_examples=100, deadline=None, database=None)
        @given(_any_blob())
        def collect(blob):
            kinds.add(decode_blob(blob)[0].kind)

        collect()
        assert kinds == set(DeclKind)

    def test_every_corpus12_blob_cut_and_mutated(self, corpus12):
        names = load_modulemap(corpus12 / FINAL_MAP_NAME).names
        blobs = [blob for mf in read_modules(corpus12, names) for _, _, blob in mf.blobs()]
        assert len(blobs) > 100
        for blob in blobs:
            for at in range(len(blob)):
                _assert_decoders_agree(blob[:at])
                for value in (0x00, 0xFF, blob[at] ^ 0x80):
                    _assert_decoders_agree(blob[:at] + bytes((value,)) + blob[at + 1:])
            _assert_decoders_agree(blob + b"\x00")


class TestRowChecks:
    """A row's blob must declare the row's name, as a kind its flags allow."""

    _B = Decl("B", DeclKind.STRUCT_DEF, fields=(StructField("x", TypeRef("i32")),), origin=("b.dh", 1))

    @pytest.mark.parametrize("flags, decl, problem", [
        (DeclFlags.HAS_DEFINITION, _B, "blob of 'A' in module 'M' declares 'B'"),
        (DeclFlags.HAS_FORWARD, dataclasses.replace(_B, name="A"),
         "blob of 'A' in module 'M' does not match its flags"),
        (DeclFlags.HAS_DEFINITION | DeclFlags.IS_ALIAS, dataclasses.replace(_B, name="A"),
         "blob of 'A' in module 'M' does not match its flags"),
    ], ids=["name", "forward-row", "alias-row"])
    def test_foreign_blob_is_corrupt(self, flags, decl, problem):
        mf = read_module_summary(modfile._emit("M", (), [("A", flags, encode_blob(decl))]))
        for deserialize in (lambda: deserialize_decl(mf, mf.rows["A"]), lambda: deserialize_module(mf)):
            with pytest.raises(CorruptTable) as excinfo:
                deserialize()
            assert str(excinfo.value) == problem

    def test_blob_declaring_another_rows_name_is_corrupt(self):
        """The check that a blob declares its own row's name compares rows,
        so a blob that declares a name another row holds is caught too."""
        rows = [("A", DeclFlags.HAS_DEFINITION, encode_blob(self._B)),
                ("B", DeclFlags.HAS_DEFINITION, encode_blob(self._B))]
        mf = read_module_summary(modfile._emit("M", (), rows))
        assert deserialize_decl(mf, mf.rows["B"])[0] == self._B
        for deserialize in (lambda: deserialize_decl(mf, mf.rows["A"]), lambda: deserialize_module(mf)):
            with pytest.raises(CorruptTable) as excinfo:
                deserialize()
            assert str(excinfo.value) == "blob of 'A' in module 'M' declares 'B'"

    def test_a_forward_beside_a_definition_matches(self):
        decl = dataclasses.replace(self._B, name="A")
        flags = DeclFlags.HAS_DEFINITION | DeclFlags.HAS_FORWARD
        mf = read_module_summary(modfile._emit("M", (), [("A", flags, encode_blob(decl))]))
        assert deserialize_module(mf) == [("A", decl, encode_payload(decl))]

    def test_module_pass_equals_one_row_at_a_time(self, corpus12):
        names = load_modulemap(corpus12 / FINAL_MAP_NAME).names
        for mf in read_modules(corpus12, [*names, modfile.PCH_MODULE_NAME]):
            rows = deserialize_module(mf)
            assert isinstance(rows, list)
            assert rows == [(name, *deserialize_decl(mf, row)) for name, row in mf.rows.items()]


@settings(max_examples=100, deadline=None)
@given(_any_text.flatmap(lambda name: _decls(name, _any_text)))
def test_encode_payload_equals_the_writer_encoding(decl):
    def write_type(w: Writer, ref: TypeRef) -> None:
        w.u32(ref.indirection)
        w.lpstr(ref.base)

    w = Writer()
    w.u8(modfile._KINDS[decl.kind].tag)
    w.lpstr(decl.name)
    if decl.kind is DeclKind.STRUCT_DEF:
        w.u32(len(decl.fields))
        for f in decl.fields:
            w.lpstr(f.name)
            write_type(w, f.type)
    elif decl.kind is DeclKind.ENUM_DEF:
        w.u32(len(decl.enumerators))
        for name in decl.enumerators:
            w.lpstr(name)
    elif decl.kind is DeclKind.ALIAS:
        write_type(w, decl.alias_target)
    elif decl.kind is DeclKind.FUNC_DECL:
        w.u32(len(decl.params))
        for p in decl.params:
            write_type(w, p)
        write_type(w, decl.returns)
    assert encode_payload(decl) == w.getvalue()
