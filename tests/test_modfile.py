from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from modix.declang import Decl, DeclKind, StructField, TypeRef, parse_header
from modix.errors import (
    BadMagic,
    BadVersion,
    CorruptModule,
    CorruptTable,
    HashMismatch,
    OdrInModule,
    OdrViolation,
    UnknownIdentifier,
)
from modix.modfile import (
    DeclFlags,
    EntityKind,
    build_pch,
    compile_module,
    deserialize_decl,
    encode_blob,
    merge_entities,
    read_module_summary,
)


def _header(text, path="h.dh"):
    return parse_header(text, path)


def _module(name, *header_texts, imports=()):
    headers = [_header(t, f"h{i}.dh") for i, t in enumerate(header_texts)]
    return compile_module(name, headers, imports)


class TestCompileAndSummary:
    def test_single_definition_flags(self):
        mf = read_module_summary(_module("M", "struct A { x: i32; };"))
        (entry,) = mf.ident_table
        assert entry.name == "A"
        assert entry.flags == DeclFlags.HAS_DEFINITION

    def test_definition_plus_forward_gets_both_flags(self):
        mf = read_module_summary(_module("M", "struct A;", "struct A { x: i32; };"))
        (entry,) = mf.ident_table
        assert entry.flags == DeclFlags.HAS_DEFINITION | DeclFlags.HAS_FORWARD

    def test_kind_flags(self):
        mf = read_module_summary(
            _module("M", "struct S;\nenum E { a };\nusing U = i32;\nfn f() -> i32;")
        )
        flags = {e.name: e.flags for e in mf.ident_table}
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
        assert len(mf.ident_table) == 1

    def test_summary_round_trips_names_and_imports(self):
        data = _module("M", "struct B;\nstruct A { b: ptr<B>; };", imports=("Dep1", "Dep2"))
        mf = read_module_summary(data)
        assert mf.module_name == "M"
        assert mf.imports == ("Dep1", "Dep2")
        assert mf.names == ("A", "B")

    def test_self_import_rejected(self):
        with pytest.raises(ValueError):
            _module("M", "struct A;", imports=("M",))

    def test_table_strictly_sorted(self):
        data = _module("M", "struct Z;\nstruct A;\nstruct M;")
        mf = read_module_summary(data)
        names = [e.name for e in mf.ident_table]
        assert names == sorted(names)

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
        assert deserialize_decl(mf, "A") == header.items[0]

    def test_forward_only_round_trips_as_forward(self):
        mf = read_module_summary(_module("M", "struct A;"))
        decl = deserialize_decl(mf, "A")
        assert decl.kind is DeclKind.STRUCT_FWD
        assert decl.deps == ()

    def test_unknown_identifier(self):
        mf = read_module_summary(_module("M", "struct A;"))
        with pytest.raises(UnknownIdentifier):
            deserialize_decl(mf, "Nope")

    def test_bytes_accounting_is_exact(self):
        data = _module("M", "struct A { x: i32; };\nenum E { a, b };")
        mf = read_module_summary(data)
        blob_total = sum(e.blob_len for e in mf.ident_table)
        assert mf.summary_bytes + blob_total == len(data)
        assert len(mf.blob_region) == blob_total

    def test_find_agrees_with_linear_scan(self):
        names = [f"n{i:02d}" for i in range(0, 40, 3)]
        text = "".join(f"struct {n};\n" for n in names)
        mf = read_module_summary(_module("M", text))
        for probe in names + ["n00x", "a", "zzz", ""]:
            linear = next((e for e in mf.ident_table if e.name == probe), None)
            assert mf.find(probe) == linear


def _def(name, field_type="i32", origin=("h.dh", 1)):
    return Decl(
        name,
        DeclKind.STRUCT_DEF,
        fields=(StructField("x", TypeRef(field_type)),),
        origin=origin,
    )


_ORDER = {f"M{i}": i for i in range(10)}


class TestMergeEntities:
    def test_definition_wins_over_forwards(self):
        fwd = Decl("Gpad", DeclKind.STRUCT_FWD)
        entity = merge_entities(
            [(_def("Gpad"), "M1"), (fwd, "M2"), (fwd, "M3")], _ORDER
        )
        assert entity.kind is EntityKind.DEFINITION
        assert entity.defining_module == "M1"
        assert entity.contributing_modules == {"M1", "M2", "M3"}

    def test_identical_definitions_take_lowest_module_id(self):
        entity = merge_entities([(_def("A"), "M2"), (_def("A"), "M1")], _ORDER)
        assert entity.defining_module == "M1"

    def test_differing_definitions_raise_naming_both(self):
        with pytest.raises(OdrViolation) as excinfo:
            merge_entities([(_def("A", "i32"), "M1"), (_def("A", "i64"), "M2")], _ORDER)
        assert {excinfo.value.module_a, excinfo.value.module_b} == {"M1", "M2"}

    def test_origin_differences_are_not_odr_violations(self):
        entity = merge_entities(
            [(_def("A", origin=("a.dh", 1)), "M1"), (_def("A", origin=("b.dh", 9)), "M2")],
            _ORDER,
        )
        assert entity.kind is EntityKind.DEFINITION
        assert entity.defining_module == "M1"

    def test_function_outranks_alias_outranks_forward(self):
        fn = Decl("N", DeclKind.FUNC_DECL, returns=TypeRef("i32"))
        alias = Decl("N", DeclKind.ALIAS, alias_target=TypeRef("i32"))
        fwd = Decl("N", DeclKind.STRUCT_FWD)
        assert merge_entities([(fwd, "M1"), (alias, "M2")], _ORDER).kind is EntityKind.ALIAS
        assert (
            merge_entities([(alias, "M1"), (fn, "M2"), (fwd, "M3")], _ORDER).kind
            is EntityKind.FUNCTION
        )

    def test_conflicting_functions_raise(self):
        f1 = Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i32"))
        f2 = Decl("f", DeclKind.FUNC_DECL, returns=TypeRef("i64"))
        with pytest.raises(OdrViolation):
            merge_entities([(f1, "M1"), (f2, "M2")], _ORDER)

    def test_mixed_names_rejected(self):
        with pytest.raises(ValueError):
            merge_entities([(_def("A"), "M1"), (_def("B"), "M2")], _ORDER)

    def test_order_insensitive(self):
        decls = [
            (_def("A"), "M3"),
            (_def("A"), "M1"),
            (Decl("A", DeclKind.STRUCT_FWD), "M2"),
        ]
        baseline = merge_entities(decls, _ORDER)
        for perm in itertools.permutations(decls):
            entity = merge_entities(list(perm), _ORDER)
            assert entity.kind == baseline.kind
            assert entity.canonical_payload == baseline.canonical_payload
            assert entity.defining_module == baseline.defining_module


class TestBuildPch:
    def _mf(self, name, *texts, imports=()):
        return read_module_summary(_module(name, *texts, imports=imports))

    def test_disjoint_modules_sum_their_names(self):
        pch = read_module_summary(
            build_pch([self._mf("M0", "struct A;"), self._mf("M1", "struct B;")])
        )
        assert pch.module_name == "__pch__"
        assert pch.imports == ()
        assert pch.names == ("A", "B")

    def test_forwards_collapse_into_the_definition(self):
        mods = [self._mf("M0", "struct Gpad { x: i32; };")]
        mods += [self._mf(f"M{i}", "struct Gpad;") for i in range(1, 6)]
        pch = read_module_summary(build_pch(mods))
        (entry,) = pch.ident_table
        assert entry.flags == DeclFlags.HAS_DEFINITION

    def test_duplicated_content_dedups(self):
        shared = "struct Boost { x: i64; };"
        mods = [
            self._mf("M0", shared + "struct A;"),
            self._mf("M1", shared + "struct B;"),
        ]
        pch = read_module_summary(build_pch(mods))
        assert len(pch.ident_table) == 3
        assert len(pch.ident_table) < sum(len(m.ident_table) for m in mods)

    def test_odr_violation_propagates(self):
        mods = [
            self._mf("M0", "struct A { x: i32; };"),
            self._mf("M1", "struct A { x: i64; };"),
        ]
        with pytest.raises(OdrViolation):
            build_pch(mods)

    def test_pch_round_trips(self):
        mods = [self._mf("M0", "struct A { x: i32; };"), self._mf("M1", "struct A;")]
        pch = read_module_summary(build_pch(mods))
        assert deserialize_decl(pch, "A").kind is DeclKind.STRUCT_DEF


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
    assert set(mf.names) == set(by_name)
    for name, expected in by_name.items():
        decl = deserialize_decl(mf, name)
        assert decl == expected
        assert encode_blob(decl) == encode_blob(expected)
