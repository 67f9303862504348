"""Differential tests: the one-pass `.ndix` loader against a per-term loader.

`load_index_oracle` reads the term, count and byte-length columns, then
walks the payload one term at a time and decodes each list on its own. Its
varbyte decode is written out here with Python integers, so the oracle
shares no numpy code with the loader under test. On any blob, both loaders must raise FormatError, or
both must return the same config, dictionary, terms and posting lists.
"""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardup import EmbeddingSet, LshConfig, build_index, load_index
from neardup.errors import DimensionError, EncodingError, FormatError
from neardup.index import INDEX_MAGIC, INDEX_VERSION, serialize_index
from neardup.util import ByteReader

CONFIG = LshConfig(d=64, selected_bits=tuple(range(36)), term_bits=6)


# -- oracle -------------------------------------------------------------------


def varbyte_decode_oracle(payload: bytes) -> list:
    """Per-list decode with the checks of the per-list codec: a list must not
    end mid-value, a value holds at most 10 bytes (bits past 64 are dropped),
    ids are running sums modulo 2^64, below 2^32 and strictly increasing."""
    ids, acc, k, running = [], 0, 0, 0
    for byte in payload:
        if k == 10:
            raise EncodingError("varbyte value longer than 10 bytes")
        acc |= (byte & 0x7F) << (7 * k)
        if byte & 0x80:
            k += 1
            continue
        running = (running + (acc % 2**64)) % 2**64
        ids.append(running)
        acc, k = 0, 0
    if k:
        raise EncodingError("truncated varbyte payload: ends mid-value")
    if any(i >= 2**32 for i in ids):
        raise EncodingError("decoded posting id overflows 32 bits")
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise EncodingError("decoded posting ids are not strictly increasing")
    return ids


def load_index_oracle(blob: bytes, path="blob"):
    if blob[:4] != INDEX_MAGIC:
        raise FormatError(f"{path}: bad magic, not an index file")
    r = ByteReader(blob, path, offset=4)
    (version,) = r.unpack("<H")
    if version != INDEX_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    d, term_bits, m = r.unpack("<HHH")
    sel = r.array("<u2", m)
    try:
        config = LshConfig(d=d, selected_bits=tuple(int(b) for b in sel), term_bits=term_bits)
    except DimensionError as exc:
        raise FormatError(f"{path}: bad LSH config: {exc}") from exc
    (n_images,) = r.unpack("<Q")
    external = r.array("<u8", n_images).copy()
    (n_terms,) = r.unpack("<I")
    columns = [r.unpack(f"<{n_terms}I") for _ in range(3)]
    postings = {}
    prev_term = -1
    for term, count, nbytes in zip(*columns):
        if term <= prev_term:
            raise FormatError(f"{path}: term {term} follows {prev_term}; terms must be strictly increasing")
        prev_term = term
        try:
            ids = varbyte_decode_oracle(r.take(nbytes))
        except EncodingError as exc:
            raise FormatError(f"{path}: posting list for term {term}: {exc}") from exc
        if len(ids) != count:
            raise FormatError(f"{path}: posting list for term {term} decodes to {len(ids)}, header says {count}")
        if ids and ids[-1] >= n_images:
            raise FormatError(f"{path}: term {term} posts dense id {ids[-1]}, dictionary holds {n_images}")
        postings[term] = ids
    if r.remaining:
        raise FormatError(f"{path}: {r.remaining} trailing bytes")
    if len(set(external.tolist())) != len(external):
        raise FormatError(f"{path}: duplicate external ids in dictionary")
    return config, external.tolist(), postings


# -- comparison ---------------------------------------------------------------


def load_from_bytes(blob: bytes):
    fd, path = tempfile.mkstemp(suffix=".ndix")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return load_index(path)
    finally:
        os.unlink(path)


def outcome_new(blob):
    try:
        index = load_from_bytes(blob)
    except FormatError:
        return None
    postings = {int(t): index.posting_ids(t).tolist() for t in index.terms}
    assert len(postings) == len(index.terms)
    assert index.posting_count() == sum(len(v) for v in postings.values())
    return index.config, index.dictionary.tolist(), postings


def outcome_oracle(blob):
    try:
        return load_index_oracle(blob)
    except FormatError:
        return None


def assert_loaders_agree(blob):
    expected = outcome_oracle(blob)
    assert outcome_new(blob) == expected
    return expected


# -- blobs --------------------------------------------------------------------


def vb_value(value: int, pad: int = 0) -> bytes:
    """One varbyte value, optionally with `pad` extra zero-valued groups."""
    groups = []
    while True:
        groups.append(value & 0x7F)
        value >>= 7
        if not value:
            break
    groups += [0] * pad
    return bytes([g | 0x80 for g in groups[:-1]] + [groups[-1]])


def raw_blob(external, entries):
    """An index file with hand-made posting entries (term, count, payload)."""
    terms, counts, payloads = zip(*entries) if entries else ((), (), ())
    parts = [
        INDEX_MAGIC,
        struct.pack("<H", INDEX_VERSION),
        struct.pack("<HHH", CONFIG.d, CONFIG.term_bits, CONFIG.m),
        np.array(CONFIG.selected_bits, dtype="<u2").tobytes(),
        struct.pack("<Q", len(external)),
        np.array(external, dtype="<u8").tobytes(),
        struct.pack("<I", len(entries)),
        *(np.array(column, dtype="<u4").tobytes() for column in (terms, counts, [len(p) for p in payloads])),
        *payloads,
    ]
    return b"".join(parts)


def index_blob(seed: int, n: int) -> bytes:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, CONFIG.d), dtype=np.uint8)
    ids = rng.choice(2**40, size=n, replace=False).astype(np.uint64)
    return serialize_index(build_index(EmbeddingSet.from_bits(ids, bits), CONFIG))


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_loaders_agree_on_built_indexes(n):
    blob = index_blob(n, n)
    loaded = assert_loaders_agree(blob)
    assert loaded is not None
    assert serialize_index(load_from_bytes(blob)) == blob


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 12),
    damage=st.sampled_from(["truncate", "flip", "set", "drop"]),
    data=st.data(),
)
def test_loaders_agree_on_damaged_blobs(seed, n, damage, data):
    blob = bytearray(index_blob(seed, n))
    pos = data.draw(st.integers(0, len(blob) - 1))
    if damage == "truncate":
        blob = blob[:pos]
    elif damage == "flip":
        blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    elif damage == "set":
        blob[pos] = data.draw(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF]))
    else:
        del blob[pos]
    assert_loaders_agree(bytes(blob))


deltas = st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1), st.just(2**32))


@st.composite
def hand_made_entries(draw):
    entries = []
    term = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 5))):
        values = draw(st.lists(deltas, max_size=4))
        payload = b"".join(vb_value(v, pad=draw(st.sampled_from([0, 0, 0, 1, 9]))) for v in values)
        if draw(st.booleans()) and draw(st.booleans()):
            payload += bytes([draw(st.sampled_from([0x80, 0x81, 0xFF]))])  # dangling continuation
        count = len(values) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        entries.append((term, max(count, 0), payload))
        term += draw(st.sampled_from([1, 1, 2, 7, 0, -1]))
        term = max(term, 0)
    return entries


@settings(max_examples=400, deadline=None)
@given(
    external=st.lists(st.integers(0, 20), max_size=8),
    entries=hand_made_entries(),
)
def test_loaders_agree_on_hand_made_blobs(external, entries):
    assert_loaders_agree(raw_blob(external, entries))


@pytest.mark.parametrize(
    "name, entries, accepted",
    [
        ("empty list first", [(3, 0, b""), (5, 2, b"\x00\x01")], True),
        ("empty list last", [(3, 1, b"\x01"), (5, 0, b"")], True),
        ("only empty lists", [(3, 0, b""), (4, 0, b"")], True),
        ("value spans two lists", [(3, 1, b"\x81"), (5, 1, b"\x01")], False),
        ("value spans two lists, counts shifted", [(3, 0, b"\x81"), (5, 1, b"\x01")], False),
        ("small value spans two lists", [(3, 0, b"\x80"), (5, 1, b"\x00")], False),
        ("11-byte value", [(3, 1, b"\x80" * 10 + b"\x00")], False),
        ("10-byte value", [(3, 1, vb_value(1, pad=9))], True),
        ("id at 2^32", [(3, 1, vb_value(2**32))], False),
        ("id past 2^32 in a later list", [(3, 1, b"\x00"), (5, 2, vb_value(1) + vb_value(2**32))], False),
        ("delta wraps modulo 2^64", [(3, 2, vb_value(1) + vb_value(2**64 - 1))], False),
        ("repeated id", [(3, 2, b"\x01\x00")], False),
        ("id beyond dictionary", [(3, 1, vb_value(2))], False),
        ("count above decoded", [(3, 2, b"\x01")], False),
        ("counts balance only in total", [(3, 2, b"\x00"), (5, 0, b"\x01")], False),
        ("id past 2^63", [(3, 1, vb_value(2**63 + 1))], False),
    ],
)
def test_loaders_agree_on_named_blobs(name, entries, accepted):
    loaded = assert_loaders_agree(raw_blob([10, 11], entries))
    assert (loaded is not None) == accepted, name


def test_version_1_file_is_refused():
    # the first layout: a head-only byte after the version, and a 12-byte
    # (term, count, nbytes) header before each term's payload
    config_and_dictionary = raw_blob([10, 11], [])[6:-4]
    blob = b"".join(
        [INDEX_MAGIC, struct.pack("<HB", 1, 0), config_and_dictionary, struct.pack("<IIII", 1, 3, 2, 2), b"\x00\x01"]
    )
    with pytest.raises(FormatError, match="unsupported version 1,"):
        load_from_bytes(blob)
    assert outcome_oracle(blob) is None
