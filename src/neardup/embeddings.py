"""Binary embeddings and LSH term derivation.

Dense visual embeddings become one bit per component, 1 iff the component
is >= 0: EmbeddingSet.from_bits(ids, vectors >= 0). A fixed subset of m
bits, ranked by empirical variance over a sample, is chopped into m/g
groups of g consecutive bits; each group becomes one integer term tagged
with its group index:

    term = (group_index << g) | group_value

so terms from different groups can never collide and every image carries
exactly m/g distinct terms. The overlap of two images' terms is the cheap
stand-in for cosine similarity used by candidate generation.

Bit order conventions, used everywhere including the embedding file:
bit i of an embedding is element i of the unpacked 0/1 array, and packed
bytes store bit 0 as the most significant bit of byte 0 (numpy's "big"
bitorder). Within a term group the first extracted bit is the most
significant bit of the group value.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, FormatError, NearDupError, SelectionError
from .util import ByteReader, atomic_write_bytes, find_sorted, top_in_groups

EMBEDDING_MAGIC = b"NDEM"
EMBEDDING_VERSION = 1

# ImageId is a 64-bit unsigned integer; the all-ones value is reserved
# so dense arrays can use it as a sentinel.
MAX_IMAGE_ID = 2**64 - 2


@dataclass(frozen=True)
class LshConfig:
    """Term-derivation parameters. selected_bits has length m, m % g == 0."""

    d: int
    selected_bits: tuple
    term_bits: int  # g: bits per term group

    def __post_init__(self):
        if self.d <= 0 or self.d % 8 != 0:
            raise DimensionError(f"d must be a positive multiple of 8, got {self.d}")
        if not 1 <= self.term_bits <= 24:
            raise DimensionError(f"term_bits must be in [1, 24], got {self.term_bits}")
        sel = tuple(int(b) for b in self.selected_bits)
        object.__setattr__(self, "selected_bits", sel)
        m = len(sel)
        if m == 0 or m % self.term_bits != 0:
            raise DimensionError(
                f"selected bit count {m} is not a positive multiple of term_bits {self.term_bits}"
            )
        if len(set(sel)) != m:
            raise DimensionError("selected_bits contains duplicates")
        if min(sel) < 0 or max(sel) >= self.d:
            raise DimensionError("selected_bits indices out of range")
        # term values must fit the u32 posting key
        top_term = ((m // self.term_bits - 1) << self.term_bits) | ((1 << self.term_bits) - 1)
        if top_term >= 2**32:
            raise DimensionError("term values would overflow 32 bits")

    @property
    def m(self) -> int:
        return len(self.selected_bits)

    @property
    def term_count(self) -> int:
        return self.m // self.term_bits


def select_bits(sample: np.ndarray, d: int, m: int) -> list:
    """Rank bit positions by empirical variance over an (n, d) 0/1 sample,
    descending, ties broken by lower index, and return the top m indices.

    For 0/1 bits the variance is p(1-p) with p the empirical mean, so the
    ranking key k*(n-k) (k = count of ones) is exact integer arithmetic.
    """
    if sample.ndim != 2 or sample.shape[1] != d:
        raise DimensionError(f"sample matrix must be (n, {d}), got {sample.shape}")
    n = sample.shape[0]
    if n == 0:
        raise SelectionError("cannot select bits from an empty sample")
    if not 0 < m <= d:
        raise SelectionError(f"m must be in [1, d]; got m={m}, d={d}")
    ones = sample.sum(axis=0, dtype=np.int64)
    key = ones * (n - ones)  # monotone in variance, exact
    return top_in_groups(np.zeros(d), key, np.arange(d), m).tolist()


def derive_terms_matrix(bits: np.ndarray, config: LshConfig) -> np.ndarray:
    """Vectorized term derivation: (n, d) 0/1 matrix -> (n, term_count) uint32.

    Column j holds the group-j term of each row; the per-image term set is
    exactly the row's values (groups cannot collide, so no dedup is needed).
    """
    if bits.ndim != 2 or bits.shape[1] != config.d:
        raise DimensionError(f"bits matrix must be (n, {config.d}), got {bits.shape}")
    g = config.term_bits
    sel = np.take(bits, np.array(config.selected_bits, dtype=np.intp), axis=1)
    grouped = sel.reshape(bits.shape[0], config.term_count, g)
    # shift in each group's bits in order, so the first extracted is the MSB
    terms = np.zeros(grouped.shape[:2], dtype=np.uint32)
    for k in range(g):
        terms <<= np.uint32(1)
        terms |= grouped[:, :, k]
    terms |= np.arange(config.term_count, dtype=np.uint32) << np.uint32(g)
    return terms


class EmbeddingSet:
    """A column-packed collection of embeddings sharing one width d.

    Bits are stored packed, ceil(d/8) bytes per image, bit 0 in the MSB of
    byte 0. This is also the record layout of the embedding file.
    """

    def __init__(self, d: int, ids: np.ndarray, packed: np.ndarray):
        if d <= 0 or d % 8 != 0:
            raise DimensionError(f"d must be a positive multiple of 8, got {d}")
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        if packed.ndim != 2 or packed.shape != (ids.shape[0], d // 8):
            raise DimensionError(
                f"packed must be ({ids.shape[0]}, {d // 8}), got {packed.shape}"
            )
        if ids.size and int(ids.max()) > MAX_IMAGE_ID:
            raise DataError(f"image id out of range [0, 2^64 - 2]: {int(ids.max())}")
        order = np.argsort(ids, kind="stable")
        if np.any(ids[order[1:]] == ids[order[:-1]]):
            raise DataError("duplicate image ids in embedding set")
        self.d = d
        self.ids = ids
        self.packed = packed
        self._by_id = (ids[order], order)  # sorted ids and their rows, for rows_of
        self._terms = None  # (LshConfig, its read-only term matrix), for terms

    def __len__(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def from_bits(cls, ids, bits: np.ndarray) -> "EmbeddingSet":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(bits.shape[1], np.asarray(ids, dtype=np.uint64), np.packbits(bits, axis=1))

    def bits_matrix(self) -> np.ndarray:
        """The (n, d) 0/1 matrix, unpacked on each call and not kept: it
        takes eight times the packed bytes."""
        return np.unpackbits(self.packed, axis=1)

    def terms(self, config: LshConfig) -> np.ndarray:
        """derive_terms_matrix of the set's bits, read-only; the last
        config's matrix is kept, so indexing a set and searching it with
        itself derive the terms once."""
        if self._terms is None or self._terms[0] != config:
            matrix = derive_terms_matrix(self.bits_matrix(), config)
            matrix.setflags(write=False)
            self._terms = (config, matrix)
        return self._terms[1]

    def rows_of(self, image_ids) -> np.ndarray:
        """Rows of many ids at once, by a sorted lookup; DataError on an unknown id."""
        sorted_ids, order = self._by_id
        try:
            wanted = np.asarray(image_ids, dtype=np.uint64).reshape(-1)
        except (OverflowError, TypeError, ValueError):
            raise DataError("image ids must be integers in [0, 2^64)") from None
        pos, known = find_sorted(sorted_ids, wanted)
        if not known.all():
            raise DataError(f"unknown image id {int(wanted[~known][0])}")
        return order[pos].astype(np.intp)

    def contains(self, image_ids) -> np.ndarray:
        """A mask of the image_ids the set holds, by the sorted lookup of rows_of."""
        return find_sorted(self._by_id[0], image_ids)[1]

    def subset(self, image_ids) -> "EmbeddingSet":
        rows = self.rows_of(image_ids)
        return EmbeddingSet(self.d, self.ids[rows], self.packed[rows])

    def concat(self, other: "EmbeddingSet") -> "EmbeddingSet":
        if other.d != self.d:
            raise DimensionError("mixed embedding widths")
        return EmbeddingSet(
            self.d,
            np.concatenate([self.ids, other.ids]),
            np.vstack([self.packed, other.packed]),
        )

    # -- embedding file -------------------------------------------------
    #
    # magic "NDEM" | version u16 | d u16 | count u64
    # then count records of: image_id u64 | ceil(d/8) raw bit bytes
    # all integers little-endian.

    def save(self, path) -> None:
        header = EMBEDDING_MAGIC + struct.pack("<HHQ", EMBEDDING_VERSION, self.d, len(self))
        record = np.zeros(
            len(self),
            dtype=np.dtype([("id", "<u8"), ("bits", np.uint8, (self.d // 8,))]),
        )
        record["id"] = self.ids
        record["bits"] = self.packed
        atomic_write_bytes(path, header + record.tobytes())

    @classmethod
    def load(cls, path) -> "EmbeddingSet":
        r = ByteReader.open(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, "embedding")
        d, count = r.unpack("<HQ")
        if d == 0 or d % 8 != 0:
            raise FormatError(f"{path}: invalid d={d}")
        record = r.array(np.dtype([("id", "<u8"), ("bits", np.uint8, (d // 8,))]), count)
        r.done()
        try:
            return cls(d, record["id"].copy(), record["bits"].copy())
        except NearDupError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def hamming_distance_matrix(embeddings: EmbeddingSet, rows_a, rows_b) -> np.ndarray:
    """Exact hamming distances between pairs of rows of one set, via a byte
    popcount table, in the narrowest unsigned type that holds d: a stable
    sort of 16-bit or narrower keys takes NumPy's radix sort."""
    xor = np.bitwise_xor(embeddings.packed[rows_a], embeddings.packed[rows_b])
    return _POPCOUNT[xor].sum(axis=-1, dtype=np.min_scalar_type(embeddings.d))


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
