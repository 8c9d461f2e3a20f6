from __future__ import annotations

from hypothesis import example, given, strategies as st

from modix._wire import Reader, Writer, byte_order

_KEYS = st.one_of(st.sampled_from(["", "é", "z", "²", "a"]), st.text(max_size=4))


@given(st.dictionaries(_KEYS, st.integers(0, 2**32 - 1), max_size=12))
@example({"é": 1, "z": 2, "²": 3, "": 4})
def test_table_round_trips_in_byte_order(rows):
    w = Writer()
    w.table(rows, w.u32)
    r = Reader(w.getvalue())
    decoded = r.table(lambda key: r.u32())
    assert r.at_end()
    assert decoded == rows
    assert list(decoded) == sorted(rows, key=lambda key: key.encode("utf-8"))
    assert byte_order(rows) == list(decoded)

