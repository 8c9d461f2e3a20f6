from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, strategies as st

from modix._wire import Reader, Writer, byte_order
from modix.errors import CorruptTable

_KEYS = st.one_of(st.sampled_from(["", "é", "z", "²", "a"]), st.text(max_size=4))


@given(st.dictionaries(_KEYS, st.integers(0, 2**32 - 1), max_size=12))
@example({"é": 1, "z": 2, "²": 3, "": 4})
def test_table_round_trips_in_byte_order(rows):
    w = Writer()
    w.table(rows, "I", lambda value: (value,))
    r = Reader(w.getvalue())
    keys, (values,) = r.table("I")
    assert r.at_end()
    decoded = {key: values[row] for key, row in keys.items()}
    assert decoded == rows
    assert list(decoded) == sorted(rows, key=lambda key: key.encode("utf-8"))
    assert byte_order(rows) == list(decoded)



_ROW = struct.Struct("<BQI")
_FIELDS = st.one_of(
    st.tuples(st.just("u8"), st.integers(0, 2**8 - 1)),
    st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("u64"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("lpstr"), st.text(max_size=6)),
    st.tuples(
        st.just("unpack"),
        st.tuples(st.integers(0, 2**8 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)),
    ),
    st.tuples(st.just("column"), st.lists(st.integers(0, 2**64 - 1), max_size=3)),
)


def _write(fields) -> bytes:
    w = Writer()
    for kind, value in fields:
        if kind == "unpack":
            w.raw(_ROW.pack(*value))
        elif kind == "column":
            w.column("Q", value)
        else:
            getattr(w, kind)(value)
    return w.getvalue()


def _read(r: Reader, fields) -> list:
    out = []
    for kind, value in fields:
        if kind == "unpack":
            out.append(r.unpack(_ROW))
        elif kind == "column":
            out.append(list(r.column("Q", len(value))))
        else:
            out.append(getattr(r, kind)())
    return out


@given(st.lists(_FIELDS, min_size=1, max_size=6), st.binary(min_size=1, max_size=5))
@example([("lpstr", "é²")], b"\x00")
def test_fields_round_trip_at_an_offset_and_every_prefix_is_corrupt(fields, lead):
    data = lead + _write(fields)
    r = Reader(data, len(lead))
    assert _read(r, fields) == [value for _, value in fields]
    assert r.at_end()
    for end in range(len(lead), len(data)):
        with pytest.raises(CorruptTable):
            _read(Reader(data[:end], len(lead)), fields)


@pytest.mark.parametrize("data", [
    struct.pack("<I", 10) + b"abc",  # length runs past the end
    struct.pack("<I", 2**32 - 1),
    struct.pack("<I", 1) + b"\xff",  # invalid UTF-8
    struct.pack("<I", 1) + b"\x80",
    struct.pack("<I", 2) + b"\xc0\x80",  # overlong NUL
    struct.pack("<I", 3) + b"\xed\xa0\x80",  # an encoded surrogate
    struct.pack("<I", 1) + b"\xc3\xa9",  # a sequence cut by the length
])
def test_bad_lpstr_is_corrupt(data):
    with pytest.raises(CorruptTable):
        Reader(b"\x00" + data, 1).lpstr()
