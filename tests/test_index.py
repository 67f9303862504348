import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import term_sets

from neardup import (
    DataError,
    EmbeddingSet,
    LshConfig,
    build_index,
    index_size_bytes,
    load_index,
    save_index,
)
from neardup.errors import EncodingError, FormatError
from neardup.index import PostingIndex, serialize_index


# -- oracles ------------------------------------------------------------------


def vb_encode_oracle(values):
    # scalar bit twiddling, one value at a time
    out = bytearray()
    prev = 0
    for i, v in enumerate(values):
        delta = v if i == 0 else v - prev
        prev = v
        while True:
            low = delta & 0x7F
            delta >>= 7
            if delta:
                out.append(low | 0x80)
            else:
                out.append(low)
                break
    return bytes(out)


def vb_decode_oracle(payload):
    values, acc, shift, prev = [], 0, 0, 0
    for byte in payload:
        acc |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            prev += acc
            values.append(prev)
            acc, shift = 0, 0
    return values


def naive_index_oracle(sets):
    # dict of python lists, dense ids in input order
    dense = {}
    postings = {}
    for image_id, terms in sets.items():
        dense[image_id] = len(dense)
        for t in sorted(terms):
            postings.setdefault(t, []).append(dense[image_id])
    return dense, postings


# -- varbyte codec, through the index file ------------------------------------

CONFIG = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)


def index_file(n_images, entries):
    """An index file over external ids 0..n_images-1 with hand-made posting
    entries (term, count, payload)."""
    terms, counts, payloads = zip(*entries) if entries else ((), (), ())
    parts = [
        b"NDIX",
        struct.pack("<H", 2),
        struct.pack("<HHH", CONFIG.d, CONFIG.term_bits, CONFIG.m),
        np.array(CONFIG.selected_bits, dtype="<u2").tobytes(),
        struct.pack("<Q", n_images),
        np.arange(n_images, dtype="<u8").tobytes(),
        struct.pack("<I", len(entries)),
        *(np.array(column, dtype="<u4").tobytes() for column in (terms, counts, [len(p) for p in payloads])),
        *payloads,
    ]
    return b"".join(parts)


def one_list(ids, n_images=1):
    """A PostingIndex whose one term, 3, posts ids."""
    return PostingIndex(CONFIG, np.arange(n_images, dtype=np.uint64), [3], [0, len(ids)], ids)


def coded(ids, n_images=1):
    """The payload serialize_index writes for the posting list ids."""
    start = len(index_file(n_images, [])) + 12  # one term's three u32 columns
    return serialize_index(one_list(ids, n_images))[start:]


def loaded(payload, count, n_images):
    """The posting list load_index decodes from payload."""
    return load_index_from_bytes(index_file(n_images, [(3, count, payload)])).posting_ids(3).tolist()


def test_varbyte_frozen_examples():
    assert coded([0]) == bytes([0x00])
    assert coded([5, 9, 12]) == bytes([0x05, 0x04, 0x03])  # deltas 5,4,3
    # 128 needs two bytes; the high bit marks continuation
    assert coded([128]) == bytes([0x80, 0x01])
    assert coded([2**32 - 1]) == vb_encode_oracle([2**32 - 1])


def test_varbyte_decode_frozen_examples():
    assert loaded(bytes([0x05, 0x04, 0x03]), 3, 13) == [5, 9, 12]
    assert loaded(bytes([0x80, 0x01]), 1, 129) == [128]
    assert loaded(b"", 0, 0) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=60, unique=True),
    st.lists(st.integers(0, 4095), min_size=0, max_size=60, unique=True),
)
def test_varbyte_round_trip_matches_oracle(ids, small):
    # any u32 list codes as the oracle does; a list within a dictionary
    # small enough to write also loads back
    ids, small = sorted(ids), sorted(small)
    payload = coded(ids)
    assert payload == vb_encode_oracle(ids)
    assert vb_decode_oracle(payload) == ids
    assert loaded(coded(small), len(small), 4096) == small


def test_varbyte_rejects_bad_sequences():
    with pytest.raises(EncodingError):
        serialize_index(one_list([3, 3], 4))
    with pytest.raises(EncodingError):
        serialize_index(one_list([5, 2], 6))
    for payload, count in (
        (vb_encode_oracle([2**32]), 1),  # id past 32 bits
        (bytes([0x80]), 1),  # ends mid-value
        (bytes([0x03, 0x00]), 2),  # repeated id
    ):
        with pytest.raises(FormatError):
            loaded(payload, count, 8)


def test_varbyte_one_byte_per_small_delta():
    # dense consecutive ids: every delta fits 7 bits -> 1 byte per posting
    assert len(coded(list(range(1000)), 1000)) == 1000


# -- dictionary ---------------------------------------------------------------


def test_id_dictionary_first_seen_order():
    # the dictionary is the external ids by dense id: the set's row order
    emb = EmbeddingSet.from_bits(np.array([99, 3, 47], dtype=np.uint64), np.eye(3, 64, dtype=np.uint8))
    index = build_index(emb, CONFIG)
    assert index.dictionary.tolist() == [99, 3, 47]
    assert len(index) == 3
    with pytest.raises(ValueError):
        index.dictionary[0] = 1  # read-only
    # only the loader checks for repeats: an index file is outside input
    blob = bytearray(serialize_index(index))
    start = len(index_file(0, [])) - 4  # the dictionary follows its u64 count
    blob[start + 8 : start + 16] = blob[start : start + 8]
    with pytest.raises(FormatError, match="duplicate"):
        load_index_from_bytes(bytes(blob))


# -- index build --------------------------------------------------------------


@pytest.fixture
def small_set(rng):
    bits = rng.integers(0, 2, size=(30, 64), dtype=np.uint8)
    ids = rng.choice(10**6, size=30, replace=False).astype(np.uint64)
    return EmbeddingSet.from_bits(ids, bits)


def test_build_index_matches_naive_oracle(small_set, lsh64):
    # sorted as u16 keys under lsh64; u8 with 1-bit groups, u32 with 24-bit ones
    for config in (lsh64, LshConfig(64, tuple(range(8)), 1), LshConfig(64, tuple(range(48)), 24)):
        index = build_index(small_set, config)
        dense, postings = naive_index_oracle(term_sets(small_set, config))
        assert index.dictionary.tolist() == list(dense)  # position = dense id
        assert index.terms.tolist() == sorted(postings)
        for term, ids in postings.items():
            assert index.posting_ids(term).tolist() == ids
        assert index.posting_count() == sum(len(v) for v in postings.values())


def test_build_index_from_embedding_set_equivalent(small_set, lsh64):
    # bits rebuilt from the term rows alone index exactly like the originals
    rebuilt = via_sets_to_embeddings(term_sets(small_set, lsh64), lsh64)
    via_sets = build_index(rebuilt, lsh64)
    index = build_index(small_set, lsh64)
    assert index.terms.tolist() == via_sets.terms.tolist()
    for t in index.terms:
        assert index.posting_ids(t).tolist() == via_sets.posting_ids(t).tolist()


def via_sets_to_embeddings(sets, config):
    # invert term derivation: place each group value back into its bits
    rows, ids = [], []
    for image_id, terms in sets.items():
        bits = np.zeros(config.d, dtype=np.uint8)
        for term in terms:
            group = term >> config.term_bits
            value = term & ((1 << config.term_bits) - 1)
            for k in range(config.term_bits):
                pos = config.selected_bits[group * config.term_bits + k]
                bits[pos] = (value >> (config.term_bits - 1 - k)) & 1
        rows.append(bits)
        ids.append(image_id)
    return EmbeddingSet.from_bits(np.array(ids, dtype=np.uint64), np.stack(rows))


def test_build_index_rejects_duplicates(small_set):
    # an index input is an EmbeddingSet, which cannot hold an id twice
    with pytest.raises(DataError):
        small_set.concat(small_set.subset(small_set.ids[:1]))


def test_empty_index(lsh64):
    empty = EmbeddingSet.from_bits(np.zeros(0, dtype=np.uint64), np.zeros((0, 64), dtype=np.uint8))
    index = build_index(empty, config=lsh64)
    assert len(index) == 0
    assert len(index.terms) == 0
    assert index.posting_count() == 0
    blob = serialize_index(index)
    # magic 4 + version 2 + config 6 + 36 selected bits * 2 + count 8 + n_terms 4
    assert len(blob) == 4 + 2 + 6 + 2 * 36 + 8 + 4
    back = load_index_from_bytes(blob)
    assert len(back.terms) == 0
    assert back.config == lsh64


def load_index_from_bytes(blob, tmp=None):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".ndix")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return load_index(path)
    finally:
        os.unlink(path)


def test_single_posting_payload_is_one_byte(lsh64, rng):
    bits = rng.integers(0, 2, size=(1, 64), dtype=np.uint8)
    index = build_index(EmbeddingSet.from_bits(np.array([0], dtype=np.uint64), bits), lsh64)
    sizes = index_size_bytes(index)
    # 6 terms, one dense id 0 each: 1 payload byte per posting vs 8 baseline
    assert sizes.payload == 6
    assert sizes.baseline == 48
    # 96 header bytes + one dictionary id (8) + 6 terms of three u32 columns + 1 payload byte
    assert sizes.serialized == 96 + 8 + 6 * (12 + 1)


def test_index_file_round_trip(small_set, lsh64, tmp_path):
    index = build_index(small_set, lsh64)
    path = tmp_path / "x.ndix"
    # the sizes come from the coding the file was written from
    assert save_index(index, path) == index_size_bytes(index)
    assert path.stat().st_size == index_size_bytes(index).serialized
    back = load_index(path)
    assert back.config == index.config
    np.testing.assert_array_equal(back.dictionary, index.dictionary)
    assert back.terms.tolist() == index.terms.tolist()
    for t in index.terms:
        assert back.posting_ids(t).tolist() == index.posting_ids(t).tolist()
    # byte-stable: serializing the loaded index reproduces the file
    assert serialize_index(back) == path.read_bytes()


def test_index_file_rejects_corruption(small_set, lsh64, tmp_path):
    index = build_index(small_set, lsh64)
    path = tmp_path / "x.ndix"
    save_index(index, path)
    blob = path.read_bytes()
    (tmp_path / "magic.ndix").write_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(FormatError):
        load_index(tmp_path / "magic.ndix")
    (tmp_path / "trail.ndix").write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_index(tmp_path / "trail.ndix")


def test_index_file_rejects_truncation(small_set, lsh64, tmp_path):
    blob = serialize_index(build_index(small_set, lsh64))
    path = tmp_path / "cut.ndix"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_index(path)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_file_bit_flips_load_or_raise_format_error(data):
    rng = np.random.default_rng(3)
    config = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)
    emb = EmbeddingSet.from_bits(np.arange(8, dtype=np.uint64), rng.integers(0, 2, size=(8, 64), dtype=np.uint8))
    blob = bytearray(serialize_index(build_index(emb, config)))
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    try:
        load_index_from_bytes(bytes(blob))
    except FormatError:
        pass


def test_index_file_rejects_inconsistent_postings():
    def blob(n_images, entries):
        return index_file(n_images, [(term, len(ids), vb_encode_oracle(ids)) for term, ids in entries])

    assert load_index_from_bytes(blob(2, [(3, [0, 1]), (7, [1])])).posting_ids(7).tolist() == [1]
    with pytest.raises(FormatError):
        load_index_from_bytes(blob(2, [(3, [0, 2])]))  # dense id beyond the dictionary
    with pytest.raises(FormatError):
        load_index_from_bytes(blob(2, [(7, [0]), (3, [1])]))  # terms out of order
    with pytest.raises(FormatError):
        load_index_from_bytes(blob(2, [(3, [0]), (3, [1])]))  # repeated term


def test_compression_beats_baseline_on_clustered_ids(rng):
    # dense posting lists (the real workload) compress well below 8 B/posting
    config = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)
    bits = rng.integers(0, 2, size=(5000, 64), dtype=np.uint8)
    index = build_index(
        EmbeddingSet.from_bits(np.arange(5000, dtype=np.uint64), bits), config
    )
    sizes = index_size_bytes(index)
    assert index.posting_count() == 30000
    assert sizes.payload < 0.5 * sizes.baseline
