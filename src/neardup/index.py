"""Compressed inverted index from LSH terms to image posting lists.

External 64-bit image ids are dictionary-encoded to dense 32-bit ids in
first-seen order. Each term's posting list is the strictly increasing
sequence of dense ids holding that term, stored delta-encoded with
variable-byte coding: little-endian 7-bit groups, high bit set meaning a
continuation byte follows. The whole point is to undercut the naive
8-bytes-per-posting layout; `index_size_bytes` reports both sides.
"""

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingSet, LshConfig, derive_terms_matrix
from .errors import DimensionError, EncodingError, FormatError, IndexBuildError
from .util import ByteReader

INDEX_MAGIC = b"NDIX"
INDEX_VERSION = 1


def varbyte_encode(values) -> bytes:
    """Delta + varbyte encode a strictly increasing sequence of u32 ids."""
    vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.int64)
    if vals.size == 0:
        return b""
    if vals.min() < 0 or vals.max() >= 2**32:
        raise EncodingError("posting ids must fit in 32 bits")
    if vals.size > 1 and not (np.diff(vals) > 0).all():
        raise EncodingError("posting ids must be strictly increasing")
    deltas = np.empty_like(vals)
    deltas[0] = vals[0]
    np.subtract(vals[1:], vals[:-1], out=deltas[1:])
    return _vb_encode_u64(deltas.astype(np.uint64))


def varbyte_decode(payload: bytes) -> np.ndarray:
    """Inverse of varbyte_encode; returns the dense-id array."""
    deltas = _vb_decode_u64(np.frombuffer(payload, dtype=np.uint8))
    ids = np.cumsum(deltas, dtype=np.uint64)
    if ids.size:
        if ids.max() >= 2**32:
            raise EncodingError("decoded posting id overflows 32 bits")
        if ids.size > 1 and not (np.diff(ids.astype(np.int64)) > 0).all():
            raise EncodingError("decoded posting ids are not strictly increasing")
    return ids.astype(np.uint32)


def _vb_encode_u64(deltas: np.ndarray) -> bytes:
    # byte count per value: 1 + how many 7-bit shifts still leave residue
    nbytes = np.ones(deltas.shape[0], dtype=np.int64)
    for k in range(1, 10):
        nbytes += (deltas >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    total = int(nbytes.sum())
    starts = np.cumsum(nbytes) - nbytes
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    rep = np.repeat(deltas, nbytes)
    out = ((rep >> (np.uint64(7) * within.astype(np.uint64))) & np.uint64(0x7F)).astype(np.uint8)
    cont = within < np.repeat(nbytes - 1, nbytes)
    out[cont] |= 0x80
    return out.tobytes()


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


@dataclass
class IdDictionary:
    """Bijection between external u64 image ids and dense u32 ids.

    Dense ids are assigned in first-seen order, 0-based.
    """

    external: np.ndarray  # (n,) uint64, position = dense id

    def __post_init__(self):
        self.external = np.ascontiguousarray(self.external, dtype=np.uint64)
        self._dense = {int(v): i for i, v in enumerate(self.external)}
        if len(self._dense) != self.external.size:
            raise IndexBuildError("duplicate external ids in dictionary")

    def __len__(self) -> int:
        return self.external.size

    def to_dense(self, external_id: int) -> int:
        try:
            return self._dense[int(external_id)]
        except KeyError:
            raise KeyError(f"external id {external_id} not in dictionary") from None

    def to_external(self, dense_id: int) -> int:
        return int(self.external[dense_id])

    def __contains__(self, external_id) -> bool:
        return int(external_id) in self._dense


class PostingList(NamedTuple):
    term: int
    count: int
    payload: bytes  # delta + varbyte encoded dense ids

    def ids(self) -> np.ndarray:
        return varbyte_decode(self.payload)


class IndexSizes(NamedTuple):
    payload: int  # varbyte posting payload bytes only
    serialized: int  # full file size: header + config + dictionary + postings
    baseline: int  # 8 bytes per posting


class PostingIndex:
    """term -> posting list map plus the id dictionary and build config."""

    def __init__(self, config: LshConfig, dictionary: IdDictionary, postings: dict, head_only: bool = False):
        self.config = config
        self.dictionary = dictionary
        # dict term -> np.uint32 array of dense ids, strictly increasing
        self._postings = postings
        self.head_only = head_only

    @property
    def terms(self) -> list:
        return sorted(self._postings)

    def posting_ids(self, term: int) -> np.ndarray:
        return self._postings.get(int(term), np.zeros(0, dtype=np.uint32))

    def posting_lists(self) -> list:
        return [
            PostingList(t, self._postings[t].size, varbyte_encode(self._postings[t]))
            for t in sorted(self._postings)
        ]

    def posting_count(self) -> int:
        return int(sum(v.size for v in self._postings.values()))

    def __len__(self) -> int:
        return len(self.dictionary)


def build_index(embeddings: EmbeddingSet, config: LshConfig, head_only: bool = False) -> PostingIndex:
    """Build a PostingIndex over an EmbeddingSet, deriving its terms under config.

    Dense ids follow the set's row order.
    """
    term_matrix = derive_terms_matrix(embeddings.bits_matrix(), config)
    dictionary = IdDictionary(embeddings.ids)
    n, t = term_matrix.shape
    flat_terms = term_matrix.reshape(-1)
    flat_dense = np.repeat(np.arange(n, dtype=np.uint32), t)
    order = np.lexsort((flat_dense, flat_terms))
    sorted_terms = flat_terms[order]
    sorted_dense = flat_dense[order]
    postings = {}
    if sorted_terms.size:
        boundaries = np.nonzero(np.diff(sorted_terms))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_terms.size]))
        for s, e in zip(starts, ends):
            postings[int(sorted_terms[s])] = sorted_dense[s:e].copy()
    return PostingIndex(config, dictionary, postings, head_only=head_only)


def index_size_bytes(index: PostingIndex) -> IndexSizes:
    """Report compressed payload, full serialized size, and the 8 B/posting baseline."""
    payload = sum(len(p.payload) for p in index.posting_lists())
    serialized = len(serialize_index(index))
    baseline = 8 * index.posting_count()
    return IndexSizes(payload, serialized, baseline)


# -- index file -------------------------------------------------------------
#
# magic "NDIX" | version u16 | head_only u8
# config block:   d u16 | term_bits u16 | m u16 | m * u16 selected bit indices
# dictionary:     count u64 | count * u64 external ids (dense order)
# postings:       n_terms u32 | per term: term u32 | count u32 | nbytes u32 | payload
# all integers little-endian.


def serialize_index(index: PostingIndex) -> bytes:
    cfg = index.config
    parts = [
        INDEX_MAGIC,
        struct.pack("<HB", INDEX_VERSION, 1 if index.head_only else 0),
        struct.pack("<HHH", cfg.d, cfg.term_bits, cfg.m),
        np.array(cfg.selected_bits, dtype="<u2").tobytes(),
        struct.pack("<Q", len(index.dictionary)),
        index.dictionary.external.astype("<u8").tobytes(),
    ]
    lists = index.posting_lists()
    parts.append(struct.pack("<I", len(lists)))
    for pl in lists:
        parts.append(struct.pack("<III", pl.term, pl.count, len(pl.payload)))
        parts.append(pl.payload)
    return b"".join(parts)


def header_size_bytes(index: PostingIndex) -> int:
    """Serialized size minus the posting entries: magic, config, dictionary."""
    cfg = index.config
    return 4 + 3 + 6 + 2 * cfg.m + 8 + 8 * len(index.dictionary) + 4


def save_index(index: PostingIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_index(index))


def load_index(path) -> PostingIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != INDEX_MAGIC:
        raise FormatError(f"{path}: bad magic, not an index file")
    r = ByteReader(blob, path, offset=4)
    version, head_only = r.unpack("<HB")
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
    postings = {}
    prev_term = -1
    for _ in range(n_terms):
        term, count, nbytes = r.unpack("<III")
        if term <= prev_term:
            raise FormatError(f"{path}: term {term} follows {prev_term}; terms must be strictly increasing")
        prev_term = term
        try:
            ids = varbyte_decode(r.take(nbytes))
        except EncodingError as exc:
            raise FormatError(f"{path}: posting list for term {term}: {exc}") from exc
        if ids.size != count:
            raise FormatError(f"{path}: posting list for term {term} decodes to {ids.size}, header says {count}")
        if ids.size and ids[-1] >= n_images:
            raise FormatError(f"{path}: term {term} posts dense id {ids[-1]}, dictionary holds {n_images}")
        postings[term] = ids
    if r.remaining:
        raise FormatError(f"{path}: {r.remaining} trailing bytes")
    try:
        dictionary = IdDictionary(external)
    except IndexBuildError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return PostingIndex(config, dictionary, postings, head_only=bool(head_only))
