"""Damaged module files, blobs and indexes raise CorruptModule, never a raw
decoding error.

Every strict prefix of a file or blob must be rejected.  A single-byte
mutation of a bare blob may still decode (a changed name, flag or count that
stays consistent), but when it does not, the error is a CorruptModule
subclass: no struct.error, IndexError, KeyError or ValueError escapes a
reader.  Whole `.pcm` and `.gmi` files carry a self-hash, so a mutated file
loads equal to the original or is rejected.  A mutated file resealed with a
valid hash gets past that check, and then every session open and lookup
over it either succeeds or raises a ModixError.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_random_corpus
from modix._wire import sealed
from modix.bench import open_corpus_session
from modix.declang import Need
from modix.errors import CorruptModule, ModixError
from modix.gmi import load_index
from modix.loader import Strategy
from modix.modfile import decode_blob, read_module_summary


def _pch_blobs(corpus_dir) -> list[bytes]:
    mf = read_module_summary((corpus_dir / "__pch__.pcm").read_bytes())
    return [blob for _, _, blob in mf.blobs()]


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


def test_resealed_bit_flips_raise_only_modix_errors(tmp_path):
    """Each trial flips one seeded bit past the hash field of one `.pcm`,
    `__pch__.pcm` or `.gmi` of a random release and reseals the file, so its
    hash passes.  Every strategy then opens with `allow_stale` and resolves
    every known and unknown name under both needs; only a ModixError may
    escape an open or a lookup."""
    corpus = build_random_corpus(random.Random(3), tmp_path / "release")
    files = sorted(path for path in corpus.dir.iterdir() if path.suffix in (".pcm", ".gmi"))
    assert len(files) == len(corpus.map.names) + 3
    rng = random.Random(0)
    seen: Counter[str] = Counter()
    for _ in range(200):
        path = rng.choice(files)
        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[rng.randrange(16, len(original))] ^= 1 << rng.randrange(8)
        path.write_bytes(sealed(bytes(flipped)))
        try:
            for strategy in Strategy:
                try:
                    session = open_corpus_session(corpus.dir, strategy, allow_stale=True)
                except ModixError:
                    seen["open refused"] += 1
                    continue
                for name in corpus.known + corpus.unknown:
                    for need in Need:
                        try:
                            session.resolve(name, need)
                        except ModixError:
                            seen["lookup refused"] += 1
                        else:
                            seen["lookup answered"] += 1
        finally:
            path.write_bytes(original)
    assert min(seen["open refused"], seen["lookup refused"], seen["lookup answered"]) > 0, seen
