"""Candidate retrieval by LSH term overlap.

Queries and the index are joined term-by-term: every (query, indexed image)
pair sharing a term contributes one co-occurrence, so the number of shared
terms is exactly the pair's overlap count. Pairs reaching min_overlap become
hits. A query indexed under its own id never matches itself.

The join is one vectorised kernel. Each query term maps to its posting range
with one sorted lookup, and all ranges expand at once into (query row, dense
id) keys, which a sort counts. Query rows go through in blocks of at most
JOIN_KEY_BUDGET keys (a row over budget alone is a block of its own), so
the keys held at once do not grow with the square of the list lengths.

A set searched against its own index takes the half join: each posting
meets only the postings after it in its list, so the join skips the
diagonal and emits each unordered pair once (Bayardo, Ma and Srikant,
"Scaling Up All Pairs Similarity Search", WWW 2007). self_pairs gives those
pairs as they come, (a, b, overlap) with a < b, and top_pairs trims them to
what a top-K search keeps in either direction; the static run, NvN ingest,
evaluate and hard-negative sampling read this one pair stream.

batch_search ranks each query's hits by (overlap desc, index image id asc)
and truncates them to K. When its queries are exactly the indexed set, as
in the staged search over a saved index, overlap_pairs takes the same half
join and mirrors each pair into both directions.
"""

import operator
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingSet, hamming_distance_matrix
from .errors import ConfigMismatchError, DataError
from .index import PostingIndex, posting_order, sorted_runs
from .util import find_sorted, pairs_within, top_in_groups

# Join keys one block materialises and sorts. A block holds every key of its
# query rows, so its count is exact. overlap_pairs self-join, 2-vCPU Xeon
# (2 MiB L2 per core), 25,248 images: 2^14, 2^16, 2^18, 2^20 keys took
# 0.124, 0.119, 0.128, 0.148 s at 17, 17, 30, 65 MB traced peak; 102,571
# images: 1.12, 1.17, 1.21, 1.42 s at 70, 70, 73, 125 MB. 2^16 u64 keys
# (512 KiB) sort within L2; larger blocks only add memory. The value follows
# the cache, not the data or the caller, so it is a constant, not a knob.
JOIN_KEY_BUDGET = 1 << 16

# the top-K cut of the candidate pairs evaluate's recall_at_distance reads
RECALL_K = 100


class SearchHit(NamedTuple):
    index_image: int
    overlap: int
    jaccard: float


class SearchResultBatch(Mapping):
    """Read-only map of query ImageId -> list[SearchHit]; every query id is present.

    Backed by aligned arrays: ids holds every query id in query order, and
    query, hit, overlap, jaccard hold one entry per hit, sorted by query id,
    each query's hits in rank order.
    """

    def __init__(self, ids=(), query=(), hit=(), overlap=(), jaccard=()):
        arrays = [
            np.asarray(ids, dtype=np.uint64),
            np.asarray(query, dtype=np.uint64),
            np.asarray(hit, dtype=np.uint64),
            np.asarray(overlap, dtype=np.int64),
            np.asarray(jaccard, dtype=np.float64),
        ]
        if len({a.shape for a in arrays[1:]}) != 1:
            raise DataError("hit arrays must be aligned")
        for a in arrays:
            a.setflags(write=False)
        self.ids, self.query, self.hit, self.overlap, self.jaccard = arrays
        self._sorted_ids = np.sort(self.ids)

    def _hit_range(self, query_id):
        try:
            q = operator.index(query_id)
        except TypeError:
            raise KeyError(query_id) from None
        if not 0 <= q < 2**64:
            raise KeyError(query_id)
        q = np.uint64(q)
        pos = int(np.searchsorted(self._sorted_ids, q))
        if pos == self._sorted_ids.size or self._sorted_ids[pos] != q:
            raise KeyError(query_id)
        return int(np.searchsorted(self.query, q)), int(np.searchsorted(self.query, q, side="right"))

    def __getitem__(self, query_id) -> list:
        lo, hi = self._hit_range(query_id)
        return list(
            map(
                SearchHit,
                self.hit[lo:hi].tolist(),
                self.overlap[lo:hi].tolist(),
                self.jaccard[lo:hi].tolist(),
            )
        )

    def __contains__(self, query_id) -> bool:
        try:
            self._hit_range(query_id)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size

    def __repr__(self) -> str:
        return f"SearchResultBatch({len(self)} queries, {self.query.size} hits)"


def unordered_pairs(hits: SearchResultBatch):
    """Each unordered (query, hit) pair once, as aligned uint64 arrays (a, b)
    with a < b, sorted by (a, b). A hit on the query's own id is dropped."""
    a, b = np.minimum(hits.query, hits.hit), np.maximum(hits.query, hits.hit)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = a != b
    keep[1:] &= (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep]


def join_blocks(row_keys: np.ndarray, budget: int) -> list:
    """Boundaries [0, ..., n] cutting rows into consecutive blocks, each the
    longest run from its start whose key counts sum to at most budget; a row
    over budget alone is a block of its own."""
    cum = np.concatenate(([0], np.cumsum(row_keys, dtype=np.int64)))
    bounds = [0]
    while bounds[-1] < row_keys.size:
        start = bounds[-1]
        stop = int(np.searchsorted(cum, cum[start] + budget, side="right")) - 1
        bounds.append(max(stop, start + 1))
    return bounds


def _self_join_lists(queries: EmbeddingSet, q_terms: np.ndarray, index: PostingIndex) -> bool:
    """Whether the index holds exactly the lists build_index makes of the
    query terms. Each list then rises strictly and holds every query row
    with its term, so _half_join of the index is the queries' self-join."""
    n, t = q_terms.shape
    if index.ids.size != n * t or not np.array_equal(queries.ids, index.dictionary):
        return False
    order = posting_order(q_terms, index.config)
    terms, offsets = sorted_runs(q_terms.reshape(-1)[order])
    return (
        np.array_equal(index.terms, terms)
        and np.array_equal(index.offsets, offsets)
        and np.array_equal(index.ids, order // t)
    )


def _join(lo: np.ndarray, hi: np.ndarray, ids: np.ndarray, min_overlap: int):
    """Count co-occurrences of (query row, dense id) over posting ranges.

    lo, hi: (n, t) bounds into ids of the postings each query cell meets.
    Returns the (row, dense, count) arrays with count >= min_overlap,
    sorted by (row, dense).
    """
    t = lo.shape[1]
    row_keys = (hi - lo).sum(axis=1)
    width, lo = (hi - lo).reshape(-1), lo.reshape(-1)
    bounds = join_blocks(row_keys, JOIN_KEY_BUDGET)
    rows, dense, counts = [], [], []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        total = int(row_keys[start:stop].sum())
        if total == 0:
            continue
        w = width[start * t : stop * t]
        # segmented arange: the ids position of every key in the block
        seg_start = np.cumsum(w) - w
        src = np.arange(total, dtype=np.int64) + np.repeat(lo[start * t : stop * t] - seg_start, w)
        row = np.repeat(np.arange(start, stop, dtype=np.uint64), row_keys[start:stop])
        keys = np.sort((row << np.uint64(32)) | ids[src].astype(np.uint64))
        uniq, offsets = sorted_runs(keys)
        count = np.diff(offsets)
        keep = count >= min_overlap
        uniq = uniq[keep]
        rows.append((uniq >> np.uint64(32)).astype(np.int64))
        dense.append((uniq & np.uint64(0xFFFFFFFF)).astype(np.int64))
        counts.append(count[keep])
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(rows), np.concatenate(dense), np.concatenate(counts)


def _half_join(index: PostingIndex, min_overlap: int):
    """The join of an index's images with each other: (row, dense, count)
    of every pair with count >= min_overlap, once, with row < dense, sorted
    by (row, dense). Both are dense ids.

    Each posting meets only the postings after it in its list. The index
    must hold one posting per image and term column, as build_index makes
    it; the lists rise, so the later postings are the pairs a row leads.
    """
    n, t = index.dictionary.size, index.config.term_count
    if index.ids.size != n * t:
        raise DataError(f"a self-join needs {t} postings per image, the index holds {index.ids.size} for {n}")
    lengths = np.diff(index.offsets)
    column = index.terms >> np.uint32(index.config.term_bits)
    # the posting of each (image, term column) cell; the per-posting
    # temporaries go before the join, which holds the most memory
    position = np.full(n * t, -1, dtype=np.int64)
    position[index.ids.astype(np.int64) * t + np.repeat(column, lengths)] = np.arange(n * t)
    if (position < 0).any():
        raise DataError("a self-join needs one posting per image and term column")
    position = position.reshape(n, t)
    return _join(position + 1, np.repeat(index.offsets[1:], lengths)[position], index.ids, min_overlap)


def self_pairs(index: PostingIndex, min_overlap: int = 2):
    """Every unordered pair of the index's own images sharing at least
    min_overlap terms, once: aligned (a, b, overlap) arrays (uint64, uint64,
    int64) with a < b by id, sorted by (a, b). No K applied; see top_pairs.

    The index must be one build_index made (or one read back from its file).
    """
    if min_overlap < 1:
        raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
    rows, dense, counts = _half_join(index, min_overlap)
    a, b = index.dictionary[rows], index.dictionary[dense]
    a, b = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((b, a))
    return a[order], b[order], counts[order]


def top_pairs(pairs, k: int):
    """The (a, b, overlap) pairs of self_pairs that a top-k search keeps in
    either direction, in their order: the pairs unordered_pairs gives of
    batch_search at k over the same set and index.

    A pair goes only when both its ends have more than k hits and neither
    ranks it in its top k by (overlap desc, id asc), so only the pairs of
    such ends are ranked.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    a, b, overlap = pairs
    ends, hits = np.unique(np.concatenate((a, b)), return_counts=True)
    busy = ends[hits > k]
    from_a, from_b = find_sorted(busy, a)[1], find_sorted(busy, b)[1]
    # each pair with a busy end, seen from that end
    side_a, side_b = np.flatnonzero(from_a), np.flatnonzero(from_b)
    seen = np.concatenate((side_a, side_b))
    end, other = np.concatenate((a[side_a], b[side_b])), np.concatenate((b[side_a], a[side_b]))
    keep = ~(from_a & from_b)
    keep[seen[top_in_groups(end, overlap[seen], other, k)]] = True
    return a[keep], b[keep], overlap[keep]


def overlap_pairs(queries: EmbeddingSet, index: PostingIndex, min_overlap: int = 2):
    """All (query_id, index_id, overlap) triples with overlap >= min_overlap.

    This is the pre-truncation result: no K applied, self-matches removed,
    sorted by (query row, index dense id). Returns three aligned arrays
    (uint64, uint64, int64).
    """
    if min_overlap < 1:
        raise DataError(f"min_overlap must be >= 1, got {min_overlap}")
    if queries.d != index.config.d:
        raise ConfigMismatchError(f"queries have d={queries.d}, index built at d={index.config.d}")
    q_terms = queries.terms(index.config)
    if q_terms.shape[0] == 0 or index.terms.size == 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.uint64), np.zeros(0, np.int64)

    if _self_join_lists(queries, q_terms, index):
        rows, dense, counts = _half_join(index, min_overlap)
        # mirror the half result, (a, b) also read as (b, a)
        rows, dense = np.concatenate((rows, dense)), np.concatenate((dense, rows))
        counts = np.concatenate((counts, counts))
        order = np.lexsort((dense, rows))
        return queries.ids[rows[order]], index.dictionary[dense[order]], counts[order]

    pos = np.minimum(np.searchsorted(index.terms, q_terms), index.terms.size - 1)
    found = index.terms[pos] == q_terms
    lo = np.where(found, index.offsets[pos], 0)
    hi = np.where(found, index.offsets[pos + 1], 0)
    rows, dense, counts = _join(lo, hi, index.ids, min_overlap)
    ext_q = queries.ids[rows]
    ext_i = index.dictionary[dense]
    not_self = ext_q != ext_i
    return ext_q[not_self], ext_i[not_self], counts[not_self]


def batch_search(queries: EmbeddingSet, index: PostingIndex, k: int = 20, min_overlap: int = 2) -> SearchResultBatch:
    """Top-K term-overlap search for a batch of queries."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    ext_q, ext_i, counts = overlap_pairs(queries, index, min_overlap=min_overlap)
    top = top_in_groups(ext_q, counts, ext_i, k)
    counts = counts[top]
    t = index.config.term_count
    return SearchResultBatch(queries.ids, ext_q[top], ext_i[top], counts, counts / (2 * t - counts))


def recall_at_distance(
    embeddings: EmbeddingSet,
    group_of: np.ndarray,
    pairs,
    distance_threshold: int,
) -> float:
    """Fraction of same-group pairs within hamming distance_threshold that
    the candidate pairs hold, in either order: pairs[0] and pairs[1] are
    aligned id arrays, such as those of top_pairs.

    group_of[i] is the ground-truth group of embeddings.ids[i]. Returns 1.0
    when no pair is within the threshold (nothing to miss); a negative
    threshold, which no pair is within, is a DataError.
    """
    if distance_threshold < 0:
        raise DataError(f"distance must be >= 0, got {distance_threshold}")
    if group_of.shape[0] != len(embeddings):
        raise DataError("group_of must align with embeddings")
    order = np.argsort(group_of, kind="stable")
    ia, ib = pairs_within(np.unique(group_of, return_counts=True)[1])
    rows_a, rows_b = order[ia], order[ib]
    dist = hamming_distance_matrix(embeddings, rows_a, rows_b)
    close = dist <= distance_threshold
    rows_a, rows_b = rows_a[close], rows_b[close]
    if rows_a.size == 0:
        return 1.0

    got = row_pair_keys(embeddings.rows_of(pairs[0]), embeddings.rows_of(pairs[1]))
    wanted = row_pair_keys(rows_a, rows_b)
    return int(np.isin(wanted, got).sum()) / rows_a.size


def row_pair_keys(rows_a, rows_b) -> np.ndarray:
    """One uint64 key per unordered pair of rows: min << 32 | max."""
    a = np.asarray(rows_a, dtype=np.uint64)
    b = np.asarray(rows_b, dtype=np.uint64)
    return (np.minimum(a, b) << np.uint64(32)) | np.maximum(a, b)
