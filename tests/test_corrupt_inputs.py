"""Damaged module files, blobs and indexes raise CorruptModule, never a raw
decoding error.

Every strict prefix of a file or blob must be rejected.  A single-byte
mutation of a bare blob may still decode (a changed name, flag or count that
stays consistent), but when it does not, the error is a CorruptModule
subclass: no struct.error, IndexError, KeyError or ValueError escapes a
reader.  Whole `.pcm` and `.gmi` files carry a self-hash, so a mutated file
loads equal to the original or is rejected.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from modix.errors import CorruptModule
from modix.gmi import load_index
from modix.modfile import decode_blob, read_module_summary


def _pch_blobs(corpus_dir) -> list[bytes]:
    mf = read_module_summary((corpus_dir / "__pch__.pcm").read_bytes())
    return [
        mf.blob_region[e.blob_offset:e.blob_offset + e.blob_len]
        for e in mf.table.values()
    ]


def _mutations(data: bytes, seed: int):
    """Every byte position, each replaced by two seeded different values."""
    rng = random.Random(seed)
    for pos in range(len(data)):
        for _ in range(2):
            value = (data[pos] + rng.randrange(1, 256)) % 256
            yield data[:pos] + bytes([value]) + data[pos + 1:]


@pytest.mark.parametrize("file_name", ["M5.pcm", "__pch__.pcm"])
def test_every_module_file_truncation_is_corrupt(corpus12, file_name):
    data = (corpus12 / file_name).read_bytes()
    read_module_summary(data)
    for n in range(len(data)):
        with pytest.raises(CorruptModule):
            read_module_summary(data[:n])


def test_every_index_truncation_is_corrupt(corpus12):
    data = (corpus12 / "modules.gmi").read_bytes()
    load_index(data)
    for n in range(len(data)):
        with pytest.raises(CorruptModule):
            load_index(data[:n])


def test_every_blob_truncation_is_corrupt(corpus12):
    blobs = _pch_blobs(corpus12)
    assert len(blobs) > 30
    for blob in blobs:
        decode_blob(blob)
        for n in range(len(blob)):
            with pytest.raises(CorruptModule):
                decode_blob(blob[:n])


def test_index_mutations_load_or_are_corrupt(corpus12):
    data = (corpus12 / "modules.gmi").read_bytes()
    rejected = 0
    for mutated in _mutations(data, seed=7):
        try:
            load_index(mutated)
        except CorruptModule:
            rejected += 1
    assert rejected > 0


def test_blob_mutations_decode_or_are_corrupt(corpus12):
    rejected = 0
    for i, blob in enumerate(_pch_blobs(corpus12)):
        for mutated in _mutations(blob, seed=i):
            try:
                decode_blob(mutated)
            except CorruptModule:
                rejected += 1
    assert rejected > 0


_WHOLE_FILES = ["M5.pcm", "__pch__.pcm", "modules.gmi", "modules.lexical.gmi"]


def _load(file_name: str, data: bytes):
    return (load_index if file_name.endswith(".gmi") else read_module_summary)(data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_WHOLE_FILES), st.data())
def test_file_mutations_load_equal_or_are_corrupt(corpus12, file_name, data):
    original = (corpus12 / file_name).read_bytes()
    pos = data.draw(st.integers(0, len(original) - 1), label="pos")
    value = data.draw(st.integers(0, 255), label="value")
    mutated = original[:pos] + bytes([value]) + original[pos + 1:]
    try:
        loaded = _load(file_name, mutated)
    except CorruptModule:
        return
    assert loaded == _load(file_name, original)


@pytest.mark.parametrize("file_name", ["modules.gmi", "modules.lexical.gmi"])
def test_no_index_bit_flip_loads_as_a_different_index(corpus12, file_name):
    data = (corpus12 / file_name).read_bytes()
    rng = random.Random(0)
    loaded = 0
    for _ in range(3000):
        pos, bit = rng.randrange(len(data)), rng.randrange(8)
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        try:
            load_index(bytes(flipped))
        except CorruptModule:
            continue
        loaded += 1
    assert loaded == 0
