"""Compressed inverted index from LSH terms to image posting lists.

External 64-bit image ids are dictionary-encoded to dense 32-bit ids: the
dictionary is the array of external ids, position = dense id. Each term's
posting list is the strictly increasing sequence of dense ids holding that
term, stored delta-encoded with variable-byte coding: little-endian 7-bit
groups, high bit set meaning a continuation byte follows. The whole point
is to undercut the naive 8-bytes-per-posting layout; `index_size_bytes`
reports both sides.

In memory the lists are CSR arrays (sorted terms, offsets, flat dense ids),
and the file holds the same layout: the term, count and byte-length
columns, then every list's payload back to back, so the codec codes or
decodes every list in one vectorised pass.
"""

import struct
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingSet, LshConfig
from .errors import DimensionError, EncodingError, FormatError, IndexBuildError
from .util import ByteReader, atomic_write_bytes

INDEX_MAGIC = b"NDIX"
INDEX_VERSION = 2
# a posting holds its image's dense id as a u32
MAX_IMAGES = 2**32


def _vb_encode_u64(values: np.ndarray):
    """Varbyte-code every value of a u64 array back to back, in one pass.

    Returns the coded bytes (uint8 array) and the byte count of each value.
    """
    # byte count per value: 1 + how many 7-bit shifts still leave residue
    nbytes = np.ones(values.shape[0], dtype=np.int64)
    for k in range(1, 10):
        nbytes += (values >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    total = int(nbytes.sum())
    starts = np.cumsum(nbytes) - nbytes
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    rep = np.repeat(values, nbytes)
    out = ((rep >> (np.uint64(7) * within.astype(np.uint64))) & np.uint64(0x7F)).astype(np.uint8)
    cont = within < np.repeat(nbytes - 1, nbytes)
    out[cont] |= 0x80
    return out, nbytes


def _vb_decode_u64(raw: np.ndarray) -> np.ndarray:
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = (raw & 0x80) == 0
    if not ends[-1]:
        raise EncodingError("truncated varbyte payload: ends mid-value")
    starts = np.empty(raw.size, dtype=bool)
    starts[0] = True
    starts[1:] = ends[:-1]
    start_idx = np.nonzero(starts)[0]
    within = np.arange(raw.size, dtype=np.int64) - np.repeat(
        start_idx, np.diff(np.append(start_idx, raw.size))
    )
    if within.max() >= 10:
        raise EncodingError("varbyte value longer than 10 bytes")
    contrib = (raw & 0x7F).astype(np.uint64) << (np.uint64(7) * within.astype(np.uint64))
    return np.add.reduceat(contrib, start_idx)


class IndexSizes(NamedTuple):
    payload: int  # varbyte posting payload bytes only
    serialized: int  # full file size: header + config + dictionary + postings
    baseline: int  # 8 bytes per posting


_NO_IDS = np.zeros(0, dtype=np.uint32)
_NO_IDS.setflags(write=False)


class PostingIndex:
    """Posting lists in CSR form plus the id dictionary and build config.

    terms[i] (strictly increasing u32) posts the dense ids
    ids[offsets[i]:offsets[i + 1]], strictly increasing within each term;
    dense id i is the external id dictionary[i]. The four arrays are
    read-only.
    """

    def __init__(
        self,
        config: LshConfig,
        dictionary: np.ndarray,
        terms: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
    ):
        self.config = config
        self.dictionary = _frozen(dictionary, np.uint64)
        self.terms = _frozen(terms, np.uint32)
        self.offsets = _frozen(offsets, np.int64)
        self.ids = _frozen(ids, np.uint32)
        if self.offsets.shape != (self.terms.size + 1,) or self.offsets[-1] != self.ids.size:
            raise IndexBuildError("posting offsets do not match terms and ids")

    def posting_ids(self, term: int) -> np.ndarray:
        term = int(term)
        if not 0 <= term < 2**32:
            return _NO_IDS
        pos = int(np.searchsorted(self.terms, term))
        if pos == self.terms.size or self.terms[pos] != term:
            return _NO_IDS
        return self.ids[self.offsets[pos] : self.offsets[pos + 1]]

    def posting_count(self) -> int:
        return int(self.ids.size)

    def __len__(self) -> int:
        return self.dictionary.size


def _frozen(values, dtype) -> np.ndarray:
    """A read-only view; the caller's array (such as a set's ids) stays writable."""
    arr = np.ascontiguousarray(values, dtype=dtype).view()
    arr.setflags(write=False)
    return arr


def sorted_runs(sorted_keys: np.ndarray):
    """Distinct values of a sorted array and the CSR offsets of their runs."""
    bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(min(sorted_keys.size, 1), dtype=np.int64), bounds))
    offsets = np.append(starts, sorted_keys.size).astype(np.int64)
    return sorted_keys[starts], offsets


def build_index(embeddings: EmbeddingSet, config: LshConfig) -> PostingIndex:
    """Build a PostingIndex over an EmbeddingSet, deriving its terms under config.

    Dense ids follow the set's row order.
    """
    term_matrix = embeddings.terms(config)
    order = posting_order(term_matrix, config)
    terms, offsets = sorted_runs(term_matrix.reshape(-1)[order])
    return PostingIndex(config, embeddings.ids, terms, offsets, order // term_matrix.shape[1])


def posting_order(term_matrix: np.ndarray, config: LshConfig) -> np.ndarray:
    """The cells of an (n, t) term matrix, as flat positions, in posting
    order: by term, each term's cells by row.

    Flat positions rise with the row, so a stable sort by term alone orders
    each list by row; keys of 16 bits or fewer take NumPy's radix sort.
    """
    key = np.min_scalar_type((config.term_count << config.term_bits) - 1)
    return np.argsort(term_matrix.reshape(-1).astype(key, copy=False), kind="stable")


def _list_heads(offsets: np.ndarray) -> np.ndarray:
    """True at the first posting of each non-empty list."""
    heads = np.zeros(offsets[-1], dtype=bool)
    heads[offsets[:-1][np.diff(offsets) > 0]] = True
    return heads


def _encode_postings(index: PostingIndex):
    """Delta + varbyte code every posting list in one pass.

    Returns the concatenated payloads (uint8 array, term order) and each
    term's payload byte count.
    """
    ids = index.ids.astype(np.int64)
    heads = _list_heads(index.offsets)
    deltas = np.empty_like(ids)
    deltas[:1] = ids[:1]
    np.subtract(ids[1:], ids[:-1], out=deltas[1:])
    if (deltas[~heads] <= 0).any():
        raise EncodingError("posting ids must be strictly increasing")
    deltas[heads] = ids[heads]  # each list restarts from its absolute first id
    payload, nbytes = _vb_encode_u64(deltas.astype(np.uint64))
    byte_ends = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(nbytes)))
    term_nbytes = byte_ends[index.offsets[1:]] - byte_ends[index.offsets[:-1]]
    return payload, term_nbytes


def index_size_bytes(index: PostingIndex) -> IndexSizes:
    """Report compressed payload, full serialized size, and the 8 B/posting baseline."""
    return _sizes(index, *_index_file(index))


def _sizes(index: PostingIndex, head: bytes, payload: bytes) -> IndexSizes:
    return IndexSizes(len(payload), len(head) + len(payload), 8 * index.posting_count())


# -- index file -------------------------------------------------------------
#
# magic "NDIX" | version u16
# config block:   d u16 | term_bits u16 | m u16 | m * u16 selected bit indices
# dictionary:     count u64 | count * u64 external ids (dense order)
# postings:       n_terms u32 | terms u32[n] | counts u32[n] | nbytes u32[n] | payload
# the payload is every term's varbyte list in term order, nbytes[i] bytes each;
# all integers little-endian.


def _index_file(index: PostingIndex):
    """The index file as two byte strings: everything ahead of the payload,
    and the payload."""
    cfg = index.config
    payload, term_nbytes = _encode_postings(index)
    head = b"".join(
        [
            INDEX_MAGIC,
            struct.pack("<H", INDEX_VERSION),
            struct.pack("<HHH", cfg.d, cfg.term_bits, cfg.m),
            np.array(cfg.selected_bits, dtype="<u2").tobytes(),
            struct.pack("<Q", len(index.dictionary)),
            index.dictionary.astype("<u8").tobytes(),
            struct.pack("<I", index.terms.size),
            index.terms.astype("<u4").tobytes(),
            np.diff(index.offsets).astype("<u4").tobytes(),
            term_nbytes.astype("<u4").tobytes(),
        ]
    )
    return head, payload.tobytes()


def serialize_index(index: PostingIndex) -> bytes:
    return b"".join(_index_file(index))


def save_index(index: PostingIndex, path) -> IndexSizes:
    """Write the index file atomically; returns its sizes, from the one coding
    of the postings the file needs."""
    head, payload = _index_file(index)
    atomic_write_bytes(path, head + payload)
    return _sizes(index, head, payload)


def load_index(path) -> PostingIndex:
    r = ByteReader.open(path, INDEX_MAGIC, INDEX_VERSION, "index")
    d, term_bits, m = r.unpack("<HHH")
    sel = r.array("<u2", m)
    try:
        config = LshConfig(d=d, selected_bits=tuple(int(b) for b in sel), term_bits=term_bits)
    except DimensionError as exc:
        raise FormatError(f"{path}: bad LSH config: {exc}") from exc
    (n_images,) = r.unpack("<Q")
    external = r.array("<u8", n_images).copy()
    (n_terms,) = r.unpack("<I")
    terms, counts, term_nbytes = [r.array("<u4", n_terms).astype(np.int64) for _ in range(3)]
    # below 2^32 values of below 2^32 each: the u64 sum is exact
    payload = r.array(np.uint8, int(term_nbytes.sum(dtype=np.uint64)))
    r.done()
    if np.unique(external).size != external.size:
        raise FormatError(f"{path}: duplicate external ids in dictionary")
    try:
        offsets, ids = _decode_postings(terms, counts, term_nbytes, payload, n_images)
    except (EncodingError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return PostingIndex(config, external, terms, offsets, ids)


def _decode_postings(terms, counts, term_nbytes, payload, n_images: int):
    """CSR offsets and ids of the posting lists in payload, term i's list
    being its next term_nbytes[i] bytes; each list is checked as a per-list
    decode would check it."""
    value_ends = (payload & 0x80) == 0
    byte_ends = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(term_nbytes)))
    nonempty = np.flatnonzero(term_nbytes)
    cut = nonempty[~value_ends[byte_ends[1:][nonempty] - 1]]
    if cut.size:
        raise FormatError(f"posting list for term {terms[cut[0]]}: truncated varbyte payload: ends mid-value")
    ends_seen = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(value_ends)))
    decoded = ends_seen[byte_ends[1:]] - ends_seen[byte_ends[:-1]]
    bad = np.flatnonzero(decoded != counts)
    if bad.size:
        i = bad[0]
        raise FormatError(f"posting list for term {terms[i]} decodes to {decoded[i]}, count column says {counts[i]}")

    # every list ends on a value boundary, so one decode of the whole stream
    # splits values exactly as a per-list decode would
    deltas = _vb_decode_u64(payload)
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    # segmented prefix sum: wraps modulo 2^64 exactly as a per-list cumsum does
    running = np.cumsum(deltas, dtype=np.uint64)
    before = np.concatenate((np.zeros(1, dtype=np.uint64), running))[offsets[:-1]]
    ids = running - np.repeat(before, counts)
    if ids.size and ids.max() >= np.uint64(MAX_IMAGES):
        raise EncodingError("decoded posting id overflows 32 bits")
    ids = ids.astype(np.int64)
    bad = np.flatnonzero(terms[1:] <= terms[:-1])
    if bad.size:
        i = bad[0] + 1
        raise FormatError(f"term {terms[i]} follows {terms[i - 1]}; terms must be strictly increasing")
    bad = np.flatnonzero(~_list_heads(offsets)[1:] & (ids[1:] <= ids[:-1]))
    if bad.size:
        raise FormatError(f"posting ids are not strictly increasing at posting {bad[0] + 1}")
    if ids.size and ids.max() >= n_images:
        raise FormatError(f"a posting list holds dense id {ids.max()}, dictionary holds {n_images}")
    return offsets, ids

